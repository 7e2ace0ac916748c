(* Per-layer metrics of a traced run, from the recorded spans and the
   counters [Batch.traced_op] accumulates. *)

let passes =
  [ "group"; "simplify"; "order"; "assemble"; "peephole"; "lower"; "route"; "verify" ]

(* Each pass's self time as a share of the stepped op wall, and the
   remainder no pass covers: together they add up to the op wall. *)
let print_shares self_s =
  let covered = List.fold_left (fun a p -> a +. self_s ("pass." ^ p)) 0.0 passes in
  let op_s = covered +. self_s "op" in
  List.iter
    (fun p ->
      let s = self_s ("pass." ^ p) in
      if s > 0.0 then Printf.eprintf "  share %-10s %6.1f%%\n" p (100.0 *. s /. op_s))
    passes;
  Printf.eprintf "  share %-10s %6.1f%%  (stepped op wall %.3f s)\n" "remainder"
    (100.0 *. self_s "op" /. op_s)
    op_s

let fill v (l : Batch.layers) =
  let self = Spans.self_by_name () in
  let self_s k = Option.value (Hashtbl.find_opt self k) ~default:0.0 in
  let ops = float_of_int (max 1 l.Batch.ops) in
  let routed = float_of_int (max 1 l.Batch.routed_ops) in
  let set k x = Hashtbl.replace v k x in
  List.iter
    (fun p ->
      set ("pass." ^ p ^ ".self_ms") (self_s ("pass." ^ p) *. 1000.0 /. ops);
      set ("pass." ^ p ^ ".alloc_mw")
        (Option.value (Hashtbl.find_opt l.Batch.pass_alloc p) ~default:0.0 /. ops /. 1e6))
    passes;
  let i = float_of_int in
  set "synth.groups" (i l.Batch.groups);
  set "synth.group_us.p50" (Stats.median l.Batch.group_us);
  set "synth.group_us.p95" (Stats.percentile 95.0 l.Batch.group_us);
  set "synth.cliffords" (i l.Batch.cliffords);
  let serial_ms = self_s "replay.synthesis" *. 1000.0 /. ops in
  set "synth.serial_ms" serial_ms;
  set "parallel.domains" (i (Phoenix_util.Parallel.num_domains ()));
  set "parallel.speedup" (Stats.ratio serial_ms (Hashtbl.find v "pass.simplify.self_ms"));
  set "cache.hits" (i l.Batch.hits);
  set "cache.misses" (i l.Batch.misses);
  set "cache.insertions" (i l.Batch.insertions);
  set "cache.evictions" (i l.Batch.evictions);
  set "cache.hit_ratio" (Stats.ratio (i l.Batch.hits) (i (l.Batch.hits + l.Batch.misses)));
  set "cache.key_us.p50" (Stats.median l.Batch.key_us);
  set "cache.lookup_us.p50" (Stats.median l.Batch.lookup_us);
  set "order.blocks" (i l.Batch.blocks);
  set "order.candidates" (i l.Batch.candidates);
  set "order.us_per_candidate" (Stats.ratio (self_s "pass.order" *. 1e6) (i l.Batch.candidates));
  set "route.swaps_total" (i l.Batch.swaps);
  set "route.swaps_per_2q" (Stats.ratio (i l.Batch.swaps) (i l.Batch.logical_two_q));
  if l.Batch.routed_ops > 0 then begin
    set "placement.ms" (self_s "replay.placement" *. 1000.0 /. routed);
    set "sabre.ms" (self_s "replay.sabre" *. 1000.0 /. routed);
    set "topology.dist_ms" (self_s "replay.topology" *. 1000.0 /. routed)
  end;
  set "peephole.gates_removed" (i l.Batch.gates_removed);
  set "lower.gates_out" (i l.Batch.gates_out);
  set "trace.overhead" (Stats.ratio l.Batch.traced_s l.Batch.untraced_s -. 1.0);
  print_shares self_s

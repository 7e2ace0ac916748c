(* perfbench: the repository benchmark.  See perfbench/README.md.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 --phoenix EXE

   With --trace 0 it prints every end-to-end metric, with --trace 1 every
   per-layer metric; the last line of stdout is one JSON object
   {correct, attempted, failed, metrics}.  A human-readable table goes to
   stderr. *)

let out_dir = Filename.concat "perfbench" "out"

(* Every per-layer metric with its unit, in print order.  A layer a
   workload never reaches reads 0 there (route on the logical workloads,
   serve and template on the batch ones). *)
let per_layer_units =
  List.concat_map
    (fun p -> [ ("pass." ^ p ^ ".self_ms", "ms"); ("pass." ^ p ^ ".alloc_mw", "Mword") ])
    Layers.passes
  @ [
      ("synth.groups", "count");
      ("synth.group_us.p50", "us");
      ("synth.group_us.p95", "us");
      ("synth.cliffords", "count");
      ("synth.serial_ms", "ms");
      ("parallel.domains", "count");
      ("parallel.speedup", "ratio");
      ("cache.hits", "count");
      ("cache.misses", "count");
      ("cache.insertions", "count");
      ("cache.evictions", "count");
      ("cache.hit_ratio", "ratio");
      ("cache.key_us.p50", "us");
      ("cache.lookup_us.p50", "us");
      ("order.blocks", "count");
      ("order.candidates", "count");
      ("order.us_per_candidate", "us");
      ("route.swaps_total", "count");
      ("route.swaps_per_2q", "ratio");
      ("placement.ms", "ms");
      ("sabre.ms", "ms");
      ("topology.dist_ms", "ms");
      ("peephole.gates_removed", "count");
      ("lower.gates_out", "count");
      ("template.compile_ms", "ms");
      ("template.bind_us.p50", "us");
      ("template.slot_sites", "count");
      ("serve.lo.op_ms.p50", "ms");
      ("serve.lo.op_ms.p95", "ms");
      ("serve.exec_ms.p50", "ms");
      ("serve.exec_ms.p95", "ms");
      ("serve.wait_ms.p50", "ms");
      ("serve.wait_ms.p95", "ms");
      ("serve.queue_depth.max", "count");
      ("serve.refused", "count");
      ("codec.parse_us.p50", "us");
      ("codec.print_us.p50", "us");
      ("codec.response_kb.p50", "KiB");
      ("serve.hi.op_ms.p50", "ms");
      ("serve.hi.op_ms.p90", "ms");
      ("serve.goodput_per_s", "1/s");
      ("wall.op_ms.p50", "ms");
      ("host.speed", "ratio");
      ("defect.warmup_lost", "count");
      ("loadgen.lag_ms.p99", "ms");
      ("trace.overhead", "ratio");
    ]

let end_to_end_units =
  [
    ("setup_s", "s");
    ("cpu_ms.p50", "ms");
    ("cpu_ms.p90", "ms");
    ("cpu_ms_per_op", "ms");
    ("ok_ratio", "ratio");
    ("peak_rss_mb", "MB");
    ("two_q_total", "count");
    ("depth_2q_total", "count");
  ]

(* VmHWM of a process, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
            kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* The host's steal time as a share of all CPU time since boot, from
   the first line of /proc/stat.  On a virtual machine a rise during a
   run means other guests took the CPUs: timings of that run are slow
   for a reason outside the program. *)
let cpu_times () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = List.map float_of_string fields in
      let steal = match List.nth_opt v 7 with Some x -> x | None -> 0.0 in
      Some (steal, List.fold_left ( +. ) 0.0 v)
    | _ -> None)
  | None | (exception Sys_error _) -> None

let start_cpu = cpu_times ()

let print_result ~correct ~attempted ~failed units values =
  (match (start_cpu, cpu_times ()) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
    Printf.eprintf "perfbench: host steal %.1f%% of CPU time during the run\n"
      (100.0 *. (s1 -. s0) /. (t1 -. t0))
  | _ -> ());
  let value name =
    match Hashtbl.find_opt values name with
    | Some v -> v
    | None -> failwith ("perfbench: metric not computed: " ^ name)
  in
  List.iter
    (fun (name, unit) -> Printf.eprintf "  %-26s %14.6g %s\n" name (value name) unit)
    units;
  Printf.eprintf "  correct=%b attempted=%d failed=%d\n%!" correct attempted failed;
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (value name) unit)
      units
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " metrics)

(* --- set-up in fresh processes ---------------------------------------- *)

(* [setup_s] is the cold path: the CPU seconds from process start until
   the first timed op can be issued, a daemon's included, scaled to the
   nominal host speed (see calib.ml).  The run's own set-up is one
   sample; [fresh_setups] more come from fresh copies of this executable
   run with [--setup-only], which set up, print one line
   ["setup <seconds> <lost>"] and exit.  [lost] counts the warm-up
   compiles that lost the known first-use race; the run reports the sum
   over all its processes. *)
let fresh_setups = 4

let setup_line ~seconds ~lost = Printf.printf "setup %.9f %d\n%!" seconds lost

let fresh_setup args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
    let last = List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) in
    match last with
    | l :: _ -> Scanf.sscanf l "setup %f %d" (fun s lost -> (s, lost))
    | [] -> failwith "perfbench: a set-up process printed nothing")
  | _ -> failwith "perfbench: a set-up process failed"

(* The run's own set-up time, then [count] more from fresh processes:
   the median, and the warm-up losses of the fresh processes. *)
let cold_setups ?(count = fresh_setups) ~own args =
  let samples = List.init count (fun _ -> fresh_setup ("--setup-only" :: args)) in
  let times = own :: List.map fst samples in
  (Stats.median times, List.fold_left (fun a (_, n) -> a + n) 0 samples)

(* Output digests are compared only between runs of the same build. *)
let build_id phoenix =
  let files = Sys.executable_name :: (if phoenix = "" then [] else [ phoenix ]) in
  String.sub (Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file files)))) 0 12

let digest_path ~phoenix name seed =
  Filename.concat out_dir (Printf.sprintf "digests-%s-%d-%s.txt" name seed (build_id phoenix))

(* --- batch workloads --------------------------------------------------- *)

(* Fresh processes the traced run starts to show the first-use race. *)
let probe_processes = 4

(* Build the inputs, time the reference, and make the warm-up compile.
   Returns the workload and the warm-up compiles lost to the race. *)
let batch_setup name seed =
  let w = Batch.make name seed in
  Calib.warm_up ();
  let lost = Batch.warm_up w w.Batch.inputs.(0) in
  (w, lost)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

let batch_untraced name ~seed ~seconds ~phoenix ~args =
  let t = Batch.tally () in
  let w, lost = batch_setup name seed in
  let setup_s, fresh_lost = cold_setups ~own:(Calib.scale (Calib.cpu ())) args in
  let m = Batch.measure w ~seed ~seconds t in
  let two_q, depth, _ = Batch.quality_totals name t in
  Batch.check_digest_file ~path:(digest_path ~phoenix name seed)
    ~problem:(fun msg -> Batch.problem t "%s" msg)
    (Batch.digest_pairs t);
  Batch.report_failures t;
  let v = Hashtbl.create 16 in
  let set k x = Hashtbl.replace v k x in
  set "setup_s" setup_s;
  let cpu_ms = Calib.scale_local m.Batch.op_cpu_ms in
  set "cpu_ms.p50" (Stats.median cpu_ms);
  set "cpu_ms.p90" (Stats.percentile 90.0 cpu_ms);
  set "cpu_ms_per_op" (mean cpu_ms);
  set "ok_ratio" (1.0 -. (float_of_int t.Batch.failed /. float_of_int t.Batch.attempted));
  set "peak_rss_mb" (peak_rss_mb "self");
  set "two_q_total" (float_of_int two_q);
  set "depth_2q_total" (float_of_int depth);
  Printf.eprintf
    "perfbench: %s seed %d: %d timed compiles; raw wall p50 %.2f ms p90 %.2f ms, raw CPU p50 %.2f ms\n"
    name seed (List.length m.Batch.op_ms) (Stats.median m.Batch.op_ms)
    (Stats.percentile 90.0 m.Batch.op_ms) (Stats.median (List.map snd m.Batch.op_cpu_ms));
  Batch.report_lost (lost + fresh_lost);
  Calib.report ();
  print_result ~correct:t.Batch.correct ~attempted:t.Batch.attempted
    ~failed:t.Batch.failed end_to_end_units v

let zero_layers () =
  let v = Hashtbl.create 64 in
  List.iter (fun (k, _) -> Hashtbl.replace v k 0.0) per_layer_units;
  v

let batch_traced name ~seed ~phoenix ~args =
  Spans.enabled := true;
  let t = Batch.tally () in
  let w, lost = batch_setup name seed in
  let _, fresh_lost = cold_setups ~count:probe_processes ~own:0.0 args in
  let l = Batch.layers () in
  let rng = Random.State.make [| seed; 17 |] in
  Array.iteri (fun op inp -> Batch.traced_op ~op w t l inp) (Batch.shuffled rng w.Batch.inputs);
  Batch.check_digest_file ~path:(digest_path ~phoenix name seed)
    ~problem:(fun msg -> Batch.problem t "%s" msg)
    (Batch.digest_pairs t);
  Batch.report_failures t;
  Spans.write (Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" name seed));
  let v = zero_layers () in
  Layers.fill v l;
  Hashtbl.replace v "wall.op_ms.p50" (Stats.median l.Batch.whole_ms);
  Hashtbl.replace v "host.speed" (Calib.speed ());
  Hashtbl.replace v "defect.warmup_lost" (float_of_int (lost + fresh_lost));
  Batch.report_lost (lost + fresh_lost);
  print_result ~correct:t.Batch.correct ~attempted:t.Batch.attempted
    ~failed:t.Batch.failed per_layer_units v

(* --- entry point ------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let phoenix = ref "" and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME hw-uccsd | qaoa-logical | serve-mixed");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--phoenix", Arg.Set_string phoenix, "EXE the phoenix CLI (serve-mixed)");
      ("--setup-only", Arg.Set setup_only, " set up once, print the set-up time, exit");
      ("--reference", Arg.Unit (fun () -> Calib.serve_reference (); exit 0),
       " serve host-speed reference runs on stdin (see calib.ml)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  (* what a fresh set-up process needs to set up the same run *)
  let args =
    [ "--workload"; !workload; "--seed"; string_of_int !seed; "--seconds";
      Printf.sprintf "%g" !seconds; "--phoenix"; !phoenix ]
  in
  let phoenix = !phoenix and seed = !seed and seconds = !seconds in
  match (!workload, !trace, !setup_only) with
  | ("hw-uccsd" | "qaoa-logical"), _, true ->
    let _, lost = batch_setup !workload seed in
    setup_line ~seconds:(Calib.scale (Calib.cpu ())) ~lost
  | "serve-mixed", _, true ->
    let s, lost = Load.setup_only ~phoenix ~seed ~seconds in
    setup_line ~seconds:s ~lost
  | ("hw-uccsd" | "qaoa-logical"), 0, false ->
    batch_untraced !workload ~seed ~seconds ~phoenix ~args
  | ("hw-uccsd" | "qaoa-logical"), 1, false -> batch_traced !workload ~seed ~phoenix ~args
  | "serve-mixed", 0, false ->
    Load.untraced ~phoenix ~seed ~seconds
      ~cold_setups:(fun ~own -> cold_setups ~own args)
      ~digest_path:(digest_path ~phoenix "serve-mixed" seed)
      ~peak_rss_mb
      ~print:(fun ~correct ~attempted ~failed v ->
        print_result ~correct ~attempted ~failed end_to_end_units v)
  | "serve-mixed", 1, false ->
    Spans.enabled := true;
    Load.traced ~phoenix ~seed ~seconds ~layers:(zero_layers ())
      ~probe:(fun () -> snd (cold_setups ~count:probe_processes ~own:0.0 args))
      ~digest_path:(digest_path ~phoenix "serve-mixed" seed)
      ~print:(fun ~correct ~attempted ~failed v ->
        Spans.write (Filename.concat out_dir (Printf.sprintf "trace-serve-mixed-%d.jsonl" seed));
        print_result ~correct ~attempted ~failed per_layer_units v)
  | w, k, _ ->
    Printf.eprintf "perfbench: unknown workload %S or trace %d\n" w k;
    exit 2

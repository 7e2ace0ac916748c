(* The batch workloads: one caller compiles a seeded input set in a closed
   loop through [Registry.compile], with the synthesis memory cache
   cleared before every compile so each op sees what a fresh
   [phoenix compile] process sees.  Default compiler options throughout,
   including the automatic domain count. *)

module R = Phoenix_pipeline.Registry
module C = Phoenix.Compiler
module Pass = Phoenix.Pass
module Cache = Phoenix_cache.Cache
module H = Phoenix_ham.Hamiltonian
module Structural = Phoenix_verify.Structural
module Certify = Phoenix_tv.Certify
module Circuit = Phoenix_circuit.Circuit
module Gate = Phoenix_circuit.Gate
module Topology = Phoenix_topology.Topology

type input = { label : string; h : H.t }

type workload = {
  options : C.options;
  topology : Topology.t option;
  inputs : input array;  (** smallest first: the warm-up op *)
}

let entry = Option.get (R.find "phoenix")
let now = Spans.now

let hw_labels =
  List.map
    (fun b -> "uccsd:" ^ b.Phoenix_ham.Molecules.label)
    Phoenix_ham.Molecules.table1_suite
  @ [ "fermi-hubbard:2x3"; "fermi-hubbard:3x3"; "fermi-hubbard:3x4" ]

(* Graph sizes for [qaoa-logical]: a few hundred to 1000 vertices,
   weighted toward the sizes below 500 so a run holds enough compiles for
   its tail percentile while the 500..1000 sizes keep [order]'s
   superlinear growth in view.  A run compiles whole rounds of these 11
   graphs, so its p50 falls amid the compiles of one size (350), and its
   p90 between the compiles of two graphs of the same size (1000): not on
   the jump between two sizes, where one slow or fast compile moves it by
   the whole gap. *)
let qaoa_sizes = [ 200; 220; 240; 260; 300; 350; 400; 500; 600; 1000; 1000 ]

let make name seed =
  match name with
  | "hw-uccsd" ->
    let topo = Phoenix_experiments.Workloads.heavy_hex () in
    let inputs =
      List.map
        (fun label ->
          match Phoenix_serve.Workload.of_spec label with
          | Ok h -> { label; h }
          | Error msg -> failwith msg)
        hw_labels
    in
    let inputs =
      List.stable_sort
        (fun a b -> compare (H.num_terms a.h) (H.num_terms b.h))
        inputs
    in
    {
      options = { C.default_options with C.target = C.Hardware topo };
      topology = Some topo;
      inputs = Array.of_list inputs;
    }
  | "qaoa-logical" ->
    let inputs =
      List.mapi
        (fun i n ->
          let graph_seed = (seed * 1009) + (i * 7919) + n in
          let g = Phoenix_ham.Graphs.random_regular ~seed:graph_seed ~degree:3 n in
          {
            label = Printf.sprintf "reg3-%d/%d" n graph_seed;
            h = Phoenix_ham.Qaoa.maxcut_cost g;
          })
        qaoa_sizes
    in
    { options = C.default_options; topology = None; inputs = Array.of_list inputs }
  | _ -> invalid_arg name

(* --- one op ------------------------------------------------------------ *)

type result = {
  ms : float;  (** wall *)
  cpu_ms : float;  (** CPU time of the process, every domain *)
  digest : string;
  two_q : int;
  depth_2q : int;
  swaps : int;
  valid : bool;  (** structural validation for the ISA and topology *)
}

let validate w circuit =
  Structural.validate ~isa:Structural.Cnot_basis ?topology:w.topology circuit = []

let digest = Phoenix_serve.Protocol.circuit_digest

(* Every op runs under exception capture: a failure is recorded by name
   and the loop goes on. *)
let compile ?hooks w inp =
  Cache.clear_memory ();
  let t0 = now () and c0 = Calib.cpu () in
  match R.compile ~options:w.options ~protect:true ?hooks entry inp.h with
  | r ->
    let ms = (now () -. t0) *. 1000.0 in
    let cpu_ms = (Calib.cpu () -. c0) *. 1000.0 in
    let c = r.C.circuit in
    Ok
      {
        ms;
        cpu_ms;
        digest = digest c;
        two_q = r.C.two_q_count;
        depth_2q = r.C.depth_2q;
        swaps = r.C.num_swaps;
        valid = validate w c;
      }
  | exception Pass.Failed { pass; error } ->
    Error (Printf.sprintf "%s: pass failed closed: %s" pass error)
  | exception e -> Error (Printexc.to_string e)

(* The process's first compile, made before any op.  It is not one of
   the run's ops: the known first-use race (README, "Known defect") can
   only strike a process's first parallel compile, so counting it would
   make [failed] a coin toss.  A loss is named on stderr, counted in the
   result, and the compile is tried again; a compile that fails three
   times is not the race, and ends the run. *)
let warm_up w inp =
  let rec go lost =
    match compile w inp with
    | Ok _ -> lost
    | Error name ->
      Printf.eprintf "perfbench: warm-up compile failed: %s\n%!" name;
      if lost >= 2 then failwith ("perfbench: warm-up compile keeps failing: " ^ name);
      go (lost + 1)
  in
  go 0

(* --- bookkeeping shared by the untraced and traced runs ---------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  failures : (string, int) Hashtbl.t;
  first : (string, result) Hashtbl.t;  (** first output per input label *)
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    correct = true;
    failures = Hashtbl.create 4;
    first = Hashtbl.create 32;
  }

let problem t fmt =
  Printf.ksprintf
    (fun msg ->
      t.correct <- false;
      prerr_endline ("perfbench: " ^ msg))
    fmt

(* Count one op; check its output against the ISA/topology and against
   every earlier output for the same input. *)
let record t inp outcome =
  t.attempted <- t.attempted + 1;
  match outcome with
  | Error name ->
    t.failed <- t.failed + 1;
    Hashtbl.replace t.failures name
      (1 + Option.value (Hashtbl.find_opt t.failures name) ~default:0);
    None
  | Ok r ->
    if not r.valid then problem t "%s: structural validation failed" inp.label;
    (match Hashtbl.find_opt t.first inp.label with
    | None -> Hashtbl.add t.first inp.label r
    | Some r0 ->
      if r0.digest <> r.digest then
        problem t "%s: output differs between repeats" inp.label);
    Some r

(* The warm-up compiles that lost the known first-use race, over every
   process of a run. *)
let report_lost n =
  if n > 0 then
    Printf.eprintf "perfbench: known defect: %d warm-up compile(s) lost the first-use race\n" n

let report_failures t =
  Hashtbl.iter
    (fun name k -> Printf.eprintf "perfbench: %d op(s) failed: %s\n" k name)
    t.failures

(* Quality totals over a set of inputs that is the same for every seed:
   the workload's inputs at seed 0.  On [hw-uccsd] the seed only orders
   the inputs, so these are the outputs the run already has; on
   [qaoa-logical] the seed-0 graphs are compiled once more after the
   timed phase.  Each is an attempted op; a failed one is counted and
   tried again, so the totals always cover the whole set. *)
let quality_totals name t =
  let w = make name 0 in
  Array.fold_left
    (fun (q, d, s) inp ->
      let rec output tries =
        match Hashtbl.find_opt t.first inp.label with
        | Some r -> r
        | None -> (
          match record t inp (compile w inp) with
          | Some r -> r
          | None when tries > 1 -> output (tries - 1)
          | None -> failwith ("perfbench: no output for " ^ inp.label))
      in
      let r = output 3 in
      (q + r.two_q, d + r.depth_2q, s + r.swaps))
    (0, 0, 0) w.inputs

(* Output digests by key, kept in the checkout across runs of one build
   (the file name carries [build], a hash of the executables).  A later
   run of the same build on the same seed, traced or not, must reproduce
   every digest it shares with an earlier one; the file keeps the union. *)
let check_digest_file ~path ~problem pairs =
  let known = Hashtbl.create 64 in
  if Sys.file_exists path then
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.iter (fun l ->
           match String.index_opt l ' ' with
           | Some i ->
             Hashtbl.replace known (String.sub l 0 i)
               (String.sub l (i + 1) (String.length l - i - 1))
           | None -> ());
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt known k with
      | Some v0 when v0 <> v -> problem (Printf.sprintf "%s: output differs from an earlier run (%s)" k path)
      | Some _ -> ()
      | None -> Hashtbl.replace known k v)
    pairs;
  let lines = Hashtbl.fold (fun k v acc -> (k ^ " " ^ v) :: acc) known [] in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (List.sort compare lines))

let digest_pairs t = Hashtbl.fold (fun label r acc -> (label, r.digest) :: acc) t.first []

let shuffled rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* --- the untraced run -------------------------------------------------- *)

type measured = {
  op_ms : float list;  (** wall, successful compiles of the timed phase *)
  op_cpu_ms : (float * float) list;  (** their start times and CPU times *)
}

(* Whole rounds: every input once per round in a fresh seeded order,
   until [seconds] have passed.  Whole rounds keep the mix of inputs in
   a run fixed, so percentiles compare across seeds.  The host-speed
   reference runs between compiles, within its time share. *)
let measure w ~seed ~seconds t =
  let rng = Random.State.make [| seed; 17 |] in
  let times = ref [] and cpu = ref [] in
  let t0 = now () in
  let rounds = ref 0 in
  while !rounds = 0 || now () -. t0 < seconds do
    Array.iter
      (fun inp ->
        Calib.sample_within ~elapsed:(now () -. t0);
        let start = now () in
        match record t inp (compile w inp) with
        | Some r ->
          times := r.ms :: !times;
          cpu := (start, r.cpu_ms) :: !cpu
        | None -> ())
      (shuffled rng w.inputs);
    incr rounds
  done;
  { op_ms = !times; op_cpu_ms = !cpu }

(* --- the traced run ---------------------------------------------------- *)

type boundary = {
  pass : Pass.t;
  before : Pass.ctx;
  after : Pass.ctx;
  entry_ : Pass.trace_entry;
}

(* Step the pipeline one pass at a time, each inside its own span. *)
let step ~op options ctx0 =
  let ctx = ref ctx0 and boundaries = ref [] in
  List.iter
    (fun (p : Pass.t) ->
      let before = !ctx in
      let after, trace =
        Spans.within ~op ("pass." ^ p.Pass.name) (fun () ->
            Pass.run ~protect:true [ p ] before)
      in
      ctx := after;
      boundaries := { pass = p; before; after; entry_ = List.hd trace } :: !boundaries)
    (entry.R.passes options);
  (!ctx, List.rev !boundaries)

(* Layer counters accumulated over the traced round. *)
type layers = {
  mutable ops : int;
  pass_alloc : (string, float) Hashtbl.t;  (** words *)
  mutable groups : int;
  mutable group_us : float list;
  mutable cliffords : int;
  mutable key_us : float list;
  mutable lookup_us : float list;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable blocks : int;
  mutable candidates : int;
  mutable swaps : int;
  mutable logical_two_q : int;
  mutable gates_removed : int;
  mutable gates_out : int;
  mutable untraced_s : float;  (** whole [Registry.compile] wall *)
  mutable whole_ms : float list;  (** the same, per op *)
  mutable traced_s : float;  (** stepped compile wall, spans on *)
  mutable routed_ops : int;
}

let layers () =
  {
    ops = 0;
    pass_alloc = Hashtbl.create 8;
    groups = 0;
    group_us = [];
    cliffords = 0;
    key_us = [];
    lookup_us = [];
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    blocks = 0;
    candidates = 0;
    swaps = 0;
    logical_two_q = 0;
    gates_removed = 0;
    gates_out = 0;
    untraced_s = 0.0;
    whole_ms = [];
    traced_s = 0.0;
    routed_ops = 0;
  }

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let is_cliff2 = function Gate.Cliff2 _ -> true | _ -> false

(* Replays of the hot public functions on one pass's recorded input. *)
let replay ~op w l (b : boundary) =
  let ctx = b.before in
  match b.pass.Pass.name with
  | "simplify" ->
    let groups = ctx.Pass.groups in
    l.groups <- l.groups + List.length groups;
    let circuits =
      Spans.within ~op "replay.synthesis" (fun () ->
          List.map
            (fun (g : Phoenix.Group.t) ->
              let c, s =
                timed (fun () ->
                    Phoenix.Synthesis.group_circuit ~exact:w.options.C.exact g)
              in
              l.group_us <- (s *. 1e6) :: l.group_us;
              c)
            groups)
    in
    List.iter (fun c -> l.cliffords <- l.cliffords + Circuit.count is_cliff2 c) circuits;
    (* the cache path around each group, in group order, as simplify
       takes it on a cleared cache *)
    Cache.clear_memory ();
    Spans.within ~op "replay.cache" (fun () ->
        List.iter2
          (fun (g : Phoenix.Group.t) c ->
            let key, ks =
              timed (fun () ->
                  Cache.key_of_terms ~exact:w.options.C.exact ctx.Pass.n
                    g.Phoenix.Group.terms)
            in
            let hit, ls =
              timed (fun () -> Cache.lookup ~tier:Cache.Mem ~n:ctx.Pass.n key)
            in
            l.key_us <- (ks *. 1e6) :: l.key_us;
            l.lookup_us <- (ls *. 1e6) :: l.lookup_us;
            if hit = None then Cache.store ~tier:Cache.Mem key c)
          groups circuits)
  | "order" ->
    let blocks = List.length ctx.Pass.blocks in
    let lookahead = ctx.Pass.options.C.lookahead in
    l.blocks <- l.blocks + blocks;
    for remaining = 1 to blocks do
      l.candidates <- l.candidates + min lookahead remaining
    done
  | "route" -> (
    match w.topology with
    | None -> ()
    | Some topo ->
      l.routed_ops <- l.routed_ops + 1;
      let abstract = ctx.Pass.circuit in
      let initial =
        Spans.within ~op "replay.placement" (fun () ->
            Phoenix_router.Placement.of_circuit topo abstract)
      in
      ignore
        (Spans.within ~op "replay.sabre" (fun () ->
             Phoenix_router.Sabre.route ~initial topo abstract));
      let fresh = Phoenix_experiments.Workloads.heavy_hex () in
      ignore
        (Spans.within ~op "replay.topology" (fun () -> Topology.distance_matrix fresh)))
  | _ -> ()

(* One traced op: whole compile (untraced, the reference), then the
   stepped compile with spans, then certification and replays. *)
let traced_op ~op w t l inp =
  Cache.clear_memory ();
  (* the whole compile hands over the context its first pass starts from *)
  let initial = ref None in
  let hook ~pass:_ ~before ~after:_ ~seconds:_ =
    if Option.is_none !initial then initial := Some before
  in
  let whole = compile ~hooks:[ hook ] w inp in
  (match whole with
  | Ok r ->
    l.untraced_s <- l.untraced_s +. (r.ms /. 1000.0);
    l.whole_ms <- r.ms :: l.whole_ms
  | Error _ -> ());
  ignore (record t inp whole);
  match !initial with
  | None -> () (* the whole compile failed in its first pass, and is counted *)
  | Some ctx0 -> (
    Cache.clear_memory ();
    let before_stats = Cache.stats () in
    let t0 = now () in
    match Spans.within ~op "op" (fun () -> step ~op w.options ctx0) with
    | exception e ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      let name = Printexc.to_string e in
      Hashtbl.replace t.failures name
        (1 + Option.value (Hashtbl.find_opt t.failures name) ~default:0)
    | final, boundaries ->
      l.traced_s <- l.traced_s +. (now () -. t0);
      t.attempted <- t.attempted + 1;
      l.ops <- l.ops + 1;
      let d = Cache.diff (Cache.stats ()) before_stats in
      l.hits <- l.hits + d.Cache.hits;
      l.misses <- l.misses + d.Cache.misses;
      l.insertions <- l.insertions + d.Cache.insertions;
      l.evictions <- l.evictions + d.Cache.evictions;
      let circuit = final.Pass.circuit in
      (match whole with
      | Ok r when r.digest <> digest circuit ->
        problem t "%s: stepped compile differs from Registry.compile" inp.label
      | _ -> ());
      if not (validate w circuit) then problem t "%s: structural validation failed" inp.label;
      l.swaps <- l.swaps + final.Pass.num_swaps;
      l.logical_two_q <- l.logical_two_q + final.Pass.logical_two_q;
      List.iter
        (fun b ->
          let name = b.pass.Pass.name in
          Hashtbl.replace l.pass_alloc name
            (b.entry_.Pass.alloc_words
            +. Option.value (Hashtbl.find_opt l.pass_alloc name) ~default:0.0);
          match name with
          | "peephole" ->
            l.gates_removed <-
              l.gates_removed + b.entry_.Pass.before.Pass.gates - b.entry_.Pass.after.Pass.gates
          | "lower" -> l.gates_out <- l.gates_out + b.entry_.Pass.after.Pass.gates
          | _ -> ())
        boundaries;
      let acc = ref [] in
      Spans.within ~op "replay.certify" (fun () ->
          List.iter
            (fun b ->
              Certify.hook acc ~pass:b.pass ~before:b.before ~after:b.after
                ~seconds:b.entry_.Pass.seconds)
            boundaries);
      let verdict = Certify.overall (Certify.boundaries acc) in
      if verdict <> "proved" then problem t "%s: certificate %s" inp.label verdict;
      List.iter (replay ~op w l) boundaries)

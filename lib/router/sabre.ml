module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit
module Topology = Phoenix_topology.Topology
module Prng = Phoenix_util.Prng

type result = {
  circuit : Circuit.t;
  initial_layout : Layout.t;
  final_layout : Layout.t;
  num_swaps : int;
}

(* Rejections shared by both routers, in the same order and wording. *)
let check_device topo circ =
  let n_log = Circuit.num_qubits circ in
  let n_phys = Topology.num_qubits topo in
  if n_log > n_phys then
    invalid_arg
      (Printf.sprintf
         "Sabre.route: circuit needs %d logical qubits but the device has \
          only %d"
         n_log n_phys);
  if not (Topology.is_connected topo) then
    invalid_arg
      (Printf.sprintf
         "Sabre.route: the %d-qubit coupling graph is disconnected — routing \
          cannot reach every qubit"
         n_phys)

(* Bridge template: CNOT(a,c) over middle qubit m without moving anyone:
   time order [CNOT(a,m); CNOT(m,c); CNOT(a,m); CNOT(m,c)]. *)
let bridge_gates a m c =
  [ Gate.Cnot (a, m); Gate.Cnot (m, c); Gate.Cnot (a, m); Gate.Cnot (m, c) ]

let reverse_circuit circ =
  Circuit.create (Circuit.num_qubits circ) (List.rev (Circuit.gates circ))

(* --- the flat-array router ------------------------------------------ *)

(* Routing state: flat arrays allocated once per call.  Dependencies are
   the per-qubit program order.  Logical qubit [q]'s gates are the CSR row
   [qgates.(qoff.(q)) .. qgates.(qoff.(q + 1) - 1)], consumed from the
   cursor [qhead.(q)]; a gate is ready when it heads the row of each of
   its qubits.  The layout is the [l2p]/[p2l] pair, updated in place. *)
type state = {
  gates : Gate.t array;
  qa : int array; (* first qubit of each gate *)
  qb : int array; (* second qubit, -1 for a 1Q gate *)
  qoff : int array;
  qgates : int array;
  qhead : int array;
  done_arr : bool array;
  mutable low : int; (* all gates below this index are done *)
  mutable remaining : int;
  l2p : int array;
  p2l : int array; (* -1 = unoccupied *)
  n_phys : int;
  dist : int array; (* row-stride: [dist.(a * n_phys + b)] *)
  mutable emitted : Gate.t list; (* reversed *)
  mutable swaps : int;
  decay_arr : float array; (* per physical qubit *)
  heads : int array; (* sorted distinct row heads *)
  mutable n_heads : int;
  mutable heads_stale : bool; (* a gate was popped since [heads] was built *)
  front : int array; (* ready 2Q gates that cannot execute, ascending *)
  mutable n_front : int;
  ext : int array; (* extended set, any order *)
  mutable n_ext : int;
  (* scoring scratch.  A slot is a front gate ([0 .. n_front - 1]) or an
     extended-set gate ([n_front ..]); [sa]/[sb] are its physical
     endpoints and [sd] their distance.  Entry [2s] / [2s + 1] stands for
     slot [s]'s first / second endpoint and is chained from that physical
     qubit's [phead] through [enext]. *)
  sa : int array;
  sb : int array;
  sd : int array;
  phead : int array; (* -1 = no entry; all -1 between steps *)
  enext : int array;
  cand : int array; (* candidate SWAPs [p * n_phys + q], [p < q], ascending *)
  mutable n_cand : int;
  mutable front_cost : int; (* the candidate's sums, while it is scored *)
  mutable ext_sum : int;
}

let make_state topo circ initial lookahead =
  let n_log = Circuit.num_qubits circ in
  let n_phys = Topology.num_qubits topo in
  if Layout.n_physical initial <> n_phys || Layout.n_logical initial < n_log
  then
    invalid_arg
      "Sabre.route: the initial layout must place every circuit qubit on \
       the device's qubits";
  let gates = Circuit.gate_array circ in
  let n = Array.length gates in
  let qa = Array.make n 0 and qb = Array.make n (-1) in
  let qoff = Array.make (n_log + 1) 0 in
  Array.iteri
    (fun i g ->
      match Gate.qubits g with
      | [ a ] ->
        qa.(i) <- a;
        qoff.(a + 1) <- qoff.(a + 1) + 1
      | [ a; b ] ->
        qa.(i) <- a;
        qb.(i) <- b;
        qoff.(a + 1) <- qoff.(a + 1) + 1;
        qoff.(b + 1) <- qoff.(b + 1) + 1
      | _ -> assert false)
    gates;
  for q = 1 to n_log do
    qoff.(q) <- qoff.(q) + qoff.(q - 1)
  done;
  let qgates = Array.make qoff.(n_log) 0 in
  let qhead = Array.sub qoff 0 n_log in
  for i = 0 to n - 1 do
    qgates.(qhead.(qa.(i))) <- i;
    qhead.(qa.(i)) <- qhead.(qa.(i)) + 1;
    if qb.(i) >= 0 then begin
      qgates.(qhead.(qb.(i))) <- i;
      qhead.(qb.(i)) <- qhead.(qb.(i)) + 1
    end
  done;
  Array.blit qoff 0 qhead 0 n_log;
  let l2p = Array.init (Layout.n_logical initial) (Layout.physical_of initial) in
  let p2l = Array.make n_phys (-1) in
  Array.iteri (fun l p -> p2l.(p) <- l) l2p;
  let n_ext = max 0 (min lookahead n) in
  let n_slots = n_log + n_ext in
  {
    gates;
    qa;
    qb;
    qoff;
    qgates;
    qhead;
    done_arr = Array.make n false;
    low = 0;
    remaining = n;
    l2p;
    p2l;
    n_phys;
    dist = Topology.distance_table topo;
    emitted = [];
    swaps = 0;
    decay_arr = Array.make n_phys 1.0;
    heads = Array.make n_log 0;
    n_heads = 0;
    heads_stale = true;
    front = Array.make n_log 0;
    n_front = 0;
    ext = Array.make n_ext 0;
    n_ext = 0;
    sa = Array.make n_slots 0;
    sb = Array.make n_slots 0;
    sd = Array.make n_slots 0;
    phead = Array.make n_phys (-1);
    enext = Array.make (2 * n_slots) 0;
    cand = Array.make (List.length (Topology.edges topo)) 0;
    n_cand = 0;
    front_cost = 0;
    ext_sum = 0;
  }

let[@inline] head st q =
  let h = st.qhead.(q) in
  if h < st.qoff.(q + 1) then st.qgates.(h) else -1

let[@inline] is_ready st i =
  head st st.qa.(i) = i && (st.qb.(i) < 0 || head st st.qb.(i) = i)

let pop_gate st i =
  st.qhead.(st.qa.(i)) <- st.qhead.(st.qa.(i)) + 1;
  if st.qb.(i) >= 0 then st.qhead.(st.qb.(i)) <- st.qhead.(st.qb.(i)) + 1;
  st.done_arr.(i) <- true;
  st.heads_stale <- true;
  while st.low < Array.length st.gates && st.done_arr.(st.low) do
    st.low <- st.low + 1
  done;
  st.remaining <- st.remaining - 1

let[@inline] phys_distance st pa pb = st.dist.((pa * st.n_phys) + pb)

(* Distance between the current sites of a 2Q gate's qubits. *)
let[@inline] gate_distance st i =
  phys_distance st st.l2p.(st.qa.(i)) st.l2p.(st.qb.(i))

let[@inline] executable st i = st.qb.(i) < 0 || gate_distance st i = 1

(* [x] with physical qubits [p] and [q] exchanged. *)
let[@inline] swapped p q (x : int) = if x = p then q else if x = q then p else x

(* Sorted distinct row heads into [st.heads].  A ready 2Q gate heads two
   rows; it is taken from its first qubit's row only. *)
let collect_heads st =
  let n = ref 0 in
  for q = 0 to Array.length st.qhead - 1 do
    let i = head st q in
    if i >= 0 && not (q = st.qb.(i) && head st st.qa.(i) = i) then begin
      let k = ref !n in
      while !k > 0 && st.heads.(!k - 1) > i do
        st.heads.(!k) <- st.heads.(!k - 1);
        decr k
      done;
      st.heads.(!k) <- i;
      incr n
    end
  done;
  st.n_heads <- !n;
  st.heads_stale <- false

(* Drain every ready gate that can execute under the current layout, in
   passes over the heads sorted at the start of each pass.  A SWAP moves
   no row cursor, so a pass right after one reuses the heads as they
   were.  On return with gates left, the last pass made no progress, so
   [st.heads] holds the current heads. *)
let rec drain st =
  if st.heads_stale then collect_heads st;
  let progressed = ref false in
  for k = 0 to st.n_heads - 1 do
    let i = st.heads.(k) in
    if is_ready st i && executable st i then begin
      st.emitted <- Gate.map_qubits (Array.get st.l2p) st.gates.(i) :: st.emitted;
      pop_gate st i;
      progressed := true
    end
  done;
  if !progressed && st.remaining > 0 then drain st

(* The front layer, read from the heads of a settled drain. *)
let build_front st =
  let n = ref 0 in
  for k = 0 to st.n_heads - 1 do
    let i = st.heads.(k) in
    if is_ready st i && st.qb.(i) >= 0 && not (executable st i) then begin
      st.front.(!n) <- i;
      incr n
    end
  done;
  st.n_front <- !n

(* The next pending 2Q gates in program order (beyond the front), for the
   lookahead term; scanning starts at the first unfinished gate.  After a
   settled drain every ready gate is a non-executable 2Q gate, so the
   front is exactly the ready gates. *)
let extended_set st lookahead =
  let n = Array.length st.gates in
  let i = ref st.low and count = ref 0 in
  while !i < n && !count < lookahead do
    let g = !i in
    if (not st.done_arr.(g)) && st.qb.(g) >= 0 && not (is_ready st g) then begin
      st.ext.(!count) <- g;
      incr count
    end;
    incr i
  done;
  st.n_ext <- !count

(* One step along a shortest path for the first front gate: guaranteed
   progress when the scoring heuristic cycles. *)
let forced_swap st topo =
  let i = st.front.(0) in
  let pa = st.l2p.(st.qa.(i)) and pb = st.l2p.(st.qb.(i)) in
  let d = phys_distance st pa pb in
  match
    List.find_opt
      (fun nb -> phys_distance st nb pb < d)
      (Topology.neighbors topo pa)
  with
  | Some nb -> min pa nb, max pa nb
  | None -> assert false (* connected topology: some neighbor is closer *)

(* A front CNOT at distance exactly 2 whose qubits no upcoming gate needs
   is cheaper to bridge (4 CNOTs, no layout change) than to route. *)
let try_bridges st topo =
  let ext_touches q =
    let rec go k =
      k < st.n_ext
      && (st.qa.(st.ext.(k)) = q || st.qb.(st.ext.(k)) = q || go (k + 1))
    in
    go 0
  in
  let bridged = ref false in
  for k = 0 to st.n_front - 1 do
    let i = st.front.(k) in
    match st.gates.(i) with
    | Gate.Cnot (a, b)
      when gate_distance st i = 2 && (not (ext_touches a)) && not (ext_touches b)
      ->
      let pa = st.l2p.(a) and pb = st.l2p.(b) in
      (match
         List.find_opt
           (fun m -> phys_distance st m pb = 1)
           (Topology.neighbors topo pa)
       with
      | Some m ->
        List.iter (fun g -> st.emitted <- g :: st.emitted) (bridge_gates pa m pb);
        pop_gate st i;
        bridged := true
      | None -> ())
    | _ -> ()
  done;
  !bridged

(* Insert the SWAPs on physical qubit [x] and each of [neighbors] into
   the sorted candidate list, once each. *)
let rec add_candidates st x = function
  | [] -> ()
  | y :: rest ->
    let key = if x < y then (x * st.n_phys) + y else (y * st.n_phys) + x in
    let j = ref st.n_cand in
    while !j > 0 && st.cand.(!j - 1) > key do
      decr j
    done;
    if not (!j > 0 && st.cand.(!j - 1) = key) then begin
      for k = st.n_cand downto !j + 1 do
        st.cand.(k) <- st.cand.(k - 1)
      done;
      st.cand.(!j) <- key;
      st.n_cand <- st.n_cand + 1
    end;
    add_candidates st x rest

(* Add to the candidate's sums the distance change, under the exchange of
   [p] and [q], of every slot with an endpoint on [x].  A slot on both [p]
   and [q] keeps its distance, so visiting it twice adds zero twice. *)
let add_deltas st p q x =
  let entry = ref st.phead.(x) in
  while !entry >= 0 do
    let s = !entry lsr 1 in
    let delta =
      phys_distance st (swapped p q st.sa.(s)) (swapped p q st.sb.(s))
      - st.sd.(s)
    in
    if s < st.n_front then st.front_cost <- st.front_cost + delta
    else st.ext_sum <- st.ext_sum + delta;
    entry := st.enext.(!entry)
  done

(* The best-scoring SWAP, as [p * n_phys + q].  Candidates are the
   coupling edges touching a front qubit, in sorted order, with one
   tie-break draw each.  A candidate is scored in place and
   incrementally: only the front and extended-set gates with an endpoint
   on one of its two qubits change distance, and the integer sums are the
   ones a full rescan under the swapped layout gives, so the float score
   is bit-identical to it. *)
let best_swap st topo rng =
  let nf = st.n_front and ne = st.n_ext in
  let n_slots = nf + ne in
  let base_front = ref 0 and base_ext = ref 0 in
  for s = 0 to n_slots - 1 do
    let i = if s < nf then st.front.(s) else st.ext.(s - nf) in
    let pa = st.l2p.(st.qa.(i)) and pb = st.l2p.(st.qb.(i)) in
    let d = phys_distance st pa pb in
    st.sa.(s) <- pa;
    st.sb.(s) <- pb;
    st.sd.(s) <- d;
    if s < nf then base_front := !base_front + d else base_ext := !base_ext + d;
    st.enext.(2 * s) <- st.phead.(pa);
    st.phead.(pa) <- 2 * s;
    st.enext.((2 * s) + 1) <- st.phead.(pb);
    st.phead.(pb) <- (2 * s) + 1
  done;
  st.n_cand <- 0;
  for s = 0 to nf - 1 do
    add_candidates st st.sa.(s) (Topology.neighbors topo st.sa.(s));
    add_candidates st st.sb.(s) (Topology.neighbors topo st.sb.(s))
  done;
  let best = ref (-1) and best_score = ref 0.0 in
  for c = 0 to st.n_cand - 1 do
    let key = st.cand.(c) in
    let p = key / st.n_phys and q = key mod st.n_phys in
    st.front_cost <- !base_front;
    st.ext_sum <- !base_ext;
    add_deltas st p q p;
    add_deltas st p q q;
    let ext_cost =
      if ne = 0 then 0.0 else float_of_int st.ext_sum /. float_of_int ne
    in
    let decay_factor = Float.max st.decay_arr.(p) st.decay_arr.(q) in
    let score =
      decay_factor *. (float_of_int st.front_cost +. (0.5 *. ext_cost))
      +. (1e-9 *. Prng.float rng 1.0)
    in
    if !best < 0 || score < !best_score then begin
      best := key;
      best_score := score
    end
  done;
  for s = 0 to n_slots - 1 do
    st.phead.(st.sa.(s)) <- -1;
    st.phead.(st.sb.(s)) <- -1
  done;
  assert (!best >= 0);
  !best

let apply_swap st ~decay p q =
  let lp = st.p2l.(p) and lq = st.p2l.(q) in
  st.p2l.(p) <- lq;
  st.p2l.(q) <- lp;
  if lp <> -1 then st.l2p.(lp) <- q;
  if lq <> -1 then st.l2p.(lq) <- p;
  st.emitted <- Gate.Swap (p, q) :: st.emitted;
  st.swaps <- st.swaps + 1;
  st.decay_arr.(p) <- st.decay_arr.(p) +. decay;
  st.decay_arr.(q) <- st.decay_arr.(q) +. decay;
  if st.swaps mod (5 * st.n_phys) = 0 then
    Array.fill st.decay_arr 0 st.n_phys 1.0

let route ?initial ?(lookahead = 20) ?(decay = 0.001) ?(seed = 7)
    ?(use_bridge = false) topo circ =
  check_device topo circ;
  let n_phys = Topology.num_qubits topo in
  let initial_layout =
    match initial with
    | Some l -> l
    | None ->
      Layout.trivial ~n_logical:(Circuit.num_qubits circ) ~n_physical:n_phys
  in
  let st = make_state topo circ initial_layout lookahead in
  let rng = Prng.create seed in
  let stall = ref 0 in
  (* [settled]: the last drain made no progress and nothing changed since,
     so draining again is a no-op and [st.heads] is current. *)
  let settled = ref false in
  while st.remaining > 0 do
    (* Cooperative cancellation point: routing has no cheaper fallback
       rung, so an expired budget propagates out of the pass. *)
    Phoenix_util.Budget.checkpoint ();
    if not !settled then begin
      drain st;
      settled := true
    end;
    if st.remaining > 0 then begin
      build_front st;
      assert (st.n_front > 0);
      let forced = !stall > 2 * n_phys in
      if use_bridge || not forced then extended_set st lookahead;
      if use_bridge && try_bridges st topo then settled := false
      else begin
        let p, q =
          if forced then forced_swap st topo
          else
            let key = best_swap st topo rng in
            key / n_phys, key mod n_phys
        in
        apply_swap st ~decay p q;
        let before = st.remaining in
        drain st;
        if st.remaining < before then stall := 0 else incr stall
      end
    end
  done;
  {
    circuit = Circuit.create n_phys (List.rev st.emitted);
    initial_layout;
    final_layout = Layout.of_l2p ~n_physical:n_phys st.l2p;
    num_swaps = st.swaps;
  }

let route_with_refinement ?initial ?(iterations = 1) ?lookahead ?seed
    ?use_bridge topo circ =
  let route_from layout c =
    route ~initial:layout ?lookahead ?seed ?use_bridge topo c
  in
  let seed_layout =
    match initial with
    | Some l -> l
    | None -> Placement.of_circuit topo circ
  in
  (* The first forward pass of the refinement starts from the seed layout,
     so it is also the seed layout's own routing: route it once. *)
  let r0 = route_from seed_layout circ in
  if iterations <= 0 then r0
  else begin
    let reversed = reverse_circuit circ in
    let rec refine fwd k =
      let bwd = route_from fwd.final_layout reversed in
      if k = 1 then bwd.final_layout
      else refine (route_from bwd.final_layout circ) (k - 1)
    in
    let r1 = route_from (refine r0 iterations) circ in
    (* Keep the better of the refined and the seed layout. *)
    if r0.num_swaps <= r1.num_swaps then r0 else r1
  end

(* --- the reference router ------------------------------------------- *)

(* The list-based router the flat one replaced, kept as the oracle for the
   differential tests. *)
module Reference = struct
  (* Mutable routing state.  Dependencies are the per-qubit program order:
     a gate is ready when it heads the pending queue of each of its qubits. *)
  type state = {
    gates : Gate.t array;
    queues : int list array; (* per logical qubit, pending gate indices *)
    done_arr : bool array;
    mutable low : int; (* all gates below this index are done *)
    mutable remaining : int;
    mutable layout : Layout.t;
    mutable emitted : Gate.t list; (* reversed *)
    mutable swaps : int;
    decay_arr : float array; (* per physical qubit *)
  }

  let queue_heads st =
    Array.to_seq st.queues
    |> Seq.filter_map (function i :: _ -> Some i | [] -> None)
    |> List.of_seq |> List.sort_uniq compare

  let is_ready st i =
    List.for_all
      (fun q -> match st.queues.(q) with j :: _ -> j = i | [] -> false)
      (Gate.qubits st.gates.(i))

  let pop_gate st i =
    List.iter
      (fun q ->
        match st.queues.(q) with
        | j :: rest when j = i -> st.queues.(q) <- rest
        | _ -> assert false)
      (Gate.qubits st.gates.(i));
    st.done_arr.(i) <- true;
    while st.low < Array.length st.gates && st.done_arr.(st.low) do
      st.low <- st.low + 1
    done;
    st.remaining <- st.remaining - 1

  (* Remap a logical gate to physical qubits under the current layout. *)
  let emit_mapped st g =
    st.emitted <- Gate.map_qubits (Layout.physical_of st.layout) g :: st.emitted

  let executable st topo i =
    match Gate.qubits st.gates.(i) with
    | [ _ ] -> true
    | [ a; b ] ->
      Topology.are_adjacent topo
        (Layout.physical_of st.layout a)
        (Layout.physical_of st.layout b)
    | _ -> assert false

  (* Drain every ready gate that can execute under the current layout. *)
  let rec drain st topo =
    let progressed = ref false in
    List.iter
      (fun i ->
        if is_ready st i && executable st topo i then begin
          emit_mapped st st.gates.(i);
          pop_gate st i;
          progressed := true
        end)
      (queue_heads st);
    if !progressed && st.remaining > 0 then drain st topo

  let front_layer st topo =
    List.filter
      (fun i ->
        is_ready st i
        && Gate.is_two_qubit st.gates.(i)
        && not (executable st topo i))
      (queue_heads st)

  (* The next pending 2Q gates in program order (beyond the front), for the
     lookahead term; scanning starts at the first unfinished gate. *)
  let extended_set st front k =
    let n = Array.length st.gates in
    let rec scan i acc count =
      if i >= n || count >= k then acc
      else if
        (not st.done_arr.(i))
        && Gate.is_two_qubit st.gates.(i)
        && not (List.mem i front)
      then scan (i + 1) (i :: acc) (count + 1)
      else scan (i + 1) acc count
    in
    scan st.low [] 0

  let gate_distance st topo i =
    match Gate.qubits st.gates.(i) with
    | [ a; b ] ->
      Topology.distance topo
        (Layout.physical_of st.layout a)
        (Layout.physical_of st.layout b)
    | _ -> 0

  (* One step along a shortest path for the first front gate: guaranteed
     progress when the scoring heuristic cycles. *)
  let forced_swap st topo front =
    match Gate.qubits st.gates.(List.hd front) with
    | [ a; b ] ->
      let pa = Layout.physical_of st.layout a
      and pb = Layout.physical_of st.layout b in
      let closer =
        List.find_opt
          (fun nb -> Topology.distance topo nb pb < Topology.distance topo pa pb)
          (Topology.neighbors topo pa)
      in
      (match closer with
      | Some nb -> min pa nb, max pa nb
      | None -> assert false (* connected topology: some neighbor is closer *))
    | _ -> assert false

  (* A front CNOT at distance exactly 2 whose qubits no upcoming gate needs
     is cheaper to bridge (4 CNOTs, no layout change) than to route. *)
  let try_bridges st topo front ext =
    let ext_touches q =
      List.exists
        (fun i -> List.mem q (Gate.qubits st.gates.(i)))
        ext
    in
    let bridged = ref false in
    List.iter
      (fun i ->
        match st.gates.(i) with
        | Gate.Cnot (a, b)
          when gate_distance st topo i = 2
               && (not (ext_touches a))
               && not (ext_touches b) ->
          let pa = Layout.physical_of st.layout a
          and pb = Layout.physical_of st.layout b in
          let middle =
            List.find_opt
              (fun m -> Topology.are_adjacent topo m pb)
              (Topology.neighbors topo pa)
          in
          (match middle with
          | Some m ->
            List.iter
              (fun g -> st.emitted <- g :: st.emitted)
              (bridge_gates pa m pb);
            pop_gate st i;
            bridged := true
          | None -> ())
        | _ -> ())
      front;
    !bridged

  let route ?initial ?(lookahead = 20) ?(decay = 0.001) ?(seed = 7)
      ?(use_bridge = false) topo circ =
    check_device topo circ;
    let n_log = Circuit.num_qubits circ in
    let n_phys = Topology.num_qubits topo in
    let initial_layout =
      match initial with
      | Some l -> l
      | None -> Layout.trivial ~n_logical:n_log ~n_physical:n_phys
    in
    let gates = Circuit.gate_array circ in
    let queues = Array.make n_log [] in
    Array.iteri
      (fun i g -> List.iter (fun q -> queues.(q) <- i :: queues.(q)) (Gate.qubits g))
      gates;
    Array.iteri (fun q l -> queues.(q) <- List.rev l) queues;
    let st =
      {
        gates;
        queues;
        done_arr = Array.make (max 1 (Array.length gates)) false;
        low = 0;
        remaining = Array.length gates;
        layout = initial_layout;
        emitted = [];
        swaps = 0;
        decay_arr = Array.make n_phys 1.0;
      }
    in
    let rng = Prng.create seed in
    let stall = ref 0 in
    while st.remaining > 0 do
      (* Cooperative cancellation point: routing has no cheaper fallback
         rung, so an expired budget propagates out of the pass. *)
      Phoenix_util.Budget.checkpoint ();
      drain st topo;
      if st.remaining > 0 then begin
        let front = front_layer st topo in
        assert (front <> []);
        let bridged =
          use_bridge
          && try_bridges st topo front (extended_set st front lookahead)
        in
        if not bridged then begin
        let p, q =
          if !stall > 2 * n_phys then forced_swap st topo front
          else begin
            let front_phys =
              List.concat_map
                (fun i ->
                  List.map
                    (fun lq -> Layout.physical_of st.layout lq)
                    (Gate.qubits st.gates.(i)))
                front
              |> List.sort_uniq compare
            in
            let candidates =
              List.concat_map
                (fun p ->
                  List.map (fun q -> min p q, max p q) (Topology.neighbors topo p))
                front_phys
              |> List.sort_uniq compare
            in
            let ext = extended_set st front lookahead in
            let score (p, q) =
              let saved = st.layout in
              st.layout <- Layout.swap_physical st.layout p q;
              let front_cost =
                List.fold_left (fun acc i -> acc + gate_distance st topo i) 0 front
              in
              let ext_cost =
                if ext = [] then 0.0
                else
                  float_of_int
                    (List.fold_left
                       (fun acc i -> acc + gate_distance st topo i)
                       0 ext)
                  /. float_of_int (List.length ext)
              in
              st.layout <- saved;
              let decay_factor = Float.max st.decay_arr.(p) st.decay_arr.(q) in
              decay_factor *. (float_of_int front_cost +. (0.5 *. ext_cost))
              +. (1e-9 *. Prng.float rng 1.0)
            in
            let best =
              List.fold_left
                (fun best cand ->
                  let s = score cand in
                  match best with
                  | Some (_, bs) when bs <= s -> best
                  | Some _ | None -> Some (cand, s))
                None candidates
            in
            match best with Some (c, _) -> c | None -> assert false
          end
        in
        st.layout <- Layout.swap_physical st.layout p q;
        st.emitted <- Gate.Swap (p, q) :: st.emitted;
        st.swaps <- st.swaps + 1;
        st.decay_arr.(p) <- st.decay_arr.(p) +. decay;
        st.decay_arr.(q) <- st.decay_arr.(q) +. decay;
        if st.swaps mod (5 * n_phys) = 0 then Array.fill st.decay_arr 0 n_phys 1.0;
        let before = st.remaining in
        drain st topo;
        if st.remaining < before then stall := 0 else incr stall
        end
      end
    done;
    {
      circuit = Circuit.create n_phys (List.rev st.emitted);
      initial_layout;
      final_layout = st.layout;
      num_swaps = st.swaps;
    }

  let route_with_refinement ?initial ?(iterations = 1) ?lookahead ?seed
      ?use_bridge topo circ =
    let reversed = reverse_circuit circ in
    let rec refine layout k =
      if k = 0 then layout
      else begin
        let fwd = route ~initial:layout ?lookahead ?seed ?use_bridge topo circ in
        let bwd =
          route ~initial:fwd.final_layout ?lookahead ?seed ?use_bridge topo
            reversed
        in
        refine bwd.final_layout (k - 1)
      end
    in
    let seed_layout =
      match initial with
      | Some l -> l
      | None -> Placement.of_circuit topo circ
    in
    let refined = refine seed_layout iterations in
    (* Keep the better of the refined and the seed layout. *)
    let r1 = route ~initial:refined ?lookahead ?seed ?use_bridge topo circ in
    let r0 = route ~initial:seed_layout ?lookahead ?seed ?use_bridge topo circ in
    if r0.num_swaps <= r1.num_swaps then r0 else r1
end

let route_reference = Reference.route
let route_with_refinement_reference = Reference.route_with_refinement

(* Free-order routing for mutually commuting gate sets: every pending 2Q
   gate is permanently "ready"; each step executes all adjacent ones and
   otherwise inserts the SWAP minimizing the total pending distance
   (newly-executable count breaking ties), with a shortest-path step as a
   guaranteed-progress fallback. *)
let route_commuting ?initial topo circ =
  let n_log = Circuit.num_qubits circ in
  let n_phys = Topology.num_qubits topo in
  if n_log > n_phys then
    invalid_arg
      (Printf.sprintf
         "Sabre.route_commuting: circuit needs %d logical qubits but the \
          device has only %d"
         n_log n_phys);
  let initial_layout =
    match initial with
    | Some l -> l
    | None -> Placement.of_circuit topo circ
  in
  let layout = ref initial_layout in
  let remap g = Gate.map_qubits (Layout.physical_of !layout) g in
  let ones, pending0 =
    List.partition (fun g -> not (Gate.is_two_qubit g)) (Circuit.gates circ)
  in
  (* 1Q gates commute with everything here: emit them first. *)
  let emitted = ref (List.rev_map remap ones) in
  let pending = ref pending0 in
  let swaps = ref 0 in
  (* ASAP busy layers per physical qubit, to steer SWAPs toward idle
     regions (depth awareness). *)
  let busy = Array.make n_phys 0 in
  let occupy p q =
    let layer = 1 + max busy.(p) busy.(q) in
    busy.(p) <- layer;
    busy.(q) <- layer
  in
  let dist g =
    match Gate.qubits g with
    | [ a; b ] ->
      Topology.distance topo
        (Layout.physical_of !layout a)
        (Layout.physical_of !layout b)
    | _ -> 0
  in
  let emit_executable () =
    let rec go () =
      let exec, rest = List.partition (fun g -> dist g = 1) !pending in
      if exec <> [] then begin
        List.iter
          (fun g ->
            (match Gate.qubits g with
            | [ a; b ] ->
              occupy (Layout.physical_of !layout a) (Layout.physical_of !layout b)
            | _ -> ());
            emitted := remap g :: !emitted)
          exec;
        pending := rest;
        go ()
      end
    in
    go ()
  in
  let total_distance () =
    List.fold_left (fun acc g -> acc + dist g) 0 !pending
  in
  while !pending <> [] do
    Phoenix_util.Budget.checkpoint ();
    emit_executable ();
    if !pending <> [] then begin
      let frontier =
        List.concat_map
          (fun g ->
            List.map (fun q -> Layout.physical_of !layout q) (Gate.qubits g))
          !pending
        |> List.sort_uniq compare
      in
      let candidates =
        List.concat_map
          (fun p ->
            List.map (fun q -> min p q, max p q) (Topology.neighbors topo p))
          frontier
        |> List.sort_uniq compare
      in
      let baseline = total_distance () in
      let score (p, q) =
        let saved = !layout in
        layout := Layout.swap_physical !layout p q;
        let d = total_distance () in
        let newly =
          List.fold_left (fun acc g -> if dist g = 1 then acc + 1 else acc) 0 !pending
        in
        layout := saved;
        ( float_of_int d,
          -.float_of_int newly,
          float_of_int (max busy.(p) busy.(q)) )
      in
      let best =
        List.fold_left
          (fun best cand ->
            let s = score cand in
            match best with
            | Some (_, bs) when bs <= s -> best
            | Some _ | None -> Some (cand, s))
          None candidates
      in
      let (p, q), (best_d, _, _) =
        match best with Some (c, s) -> c, s | None -> assert false
      in
      let p, q =
        if best_d < float_of_int baseline then p, q
        else begin
          match !pending with
          | g :: _ ->
            (match Gate.qubits g with
            | [ a; b ] ->
              let pa = Layout.physical_of !layout a
              and pb = Layout.physical_of !layout b in
              let closer =
                List.find_opt
                  (fun nb ->
                    Topology.distance topo nb pb < Topology.distance topo pa pb)
                  (Topology.neighbors topo pa)
              in
              (match closer with
              | Some nb -> min pa nb, max pa nb
              | None -> p, q)
            | _ -> p, q)
          | [] -> assert false
        end
      in
      layout := Layout.swap_physical !layout p q;
      emitted := Gate.Swap (p, q) :: !emitted;
      occupy p q;
      incr swaps
    end
  done;
  {
    circuit = Circuit.create n_phys (List.rev !emitted);
    initial_layout;
    final_layout = !layout;
    num_swaps = !swaps;
  }

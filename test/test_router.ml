module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Cmat = Helpers.Cmat
module Unitary = Helpers.Unitary
module Topology = Phoenix_topology.Topology
module Layout = Phoenix_router.Layout
module Sabre = Phoenix_router.Sabre
module Rebase = Phoenix_circuit.Rebase

let cnot a b = Gate.Cnot (a, b)
let h q = Gate.G1 (Gate.H, q)
let rz t q = Gate.G1 (Gate.Rz t, q)

(* --- layout --- *)

let test_layout_trivial () =
  let l = Layout.trivial ~n_logical:3 ~n_physical:5 in
  Alcotest.(check int) "physical of 2" 2 (Layout.physical_of l 2);
  Alcotest.(check (option int)) "logical of 4" None (Layout.logical_of l 4);
  Alcotest.(check (option int)) "logical of 1" (Some 1) (Layout.logical_of l 1)

let test_layout_swap () =
  let l = Layout.trivial ~n_logical:2 ~n_physical:3 in
  let l' = Layout.swap_physical l 0 2 in
  Alcotest.(check int) "moved" 2 (Layout.physical_of l' 0);
  Alcotest.(check (option int)) "vacated" None (Layout.logical_of l' 0);
  Alcotest.(check int) "untouched" 1 (Layout.physical_of l' 1);
  (* original is unchanged (immutability) *)
  Alcotest.(check int) "original" 0 (Layout.physical_of l 0)

let test_layout_injective () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Layout.of_l2p: not injective")
    (fun () -> ignore (Layout.of_l2p ~n_physical:3 [| 1; 1 |]))

(* --- routing: respects topology --- *)

let respects_topology topo circ =
  List.for_all
    (fun g ->
      match Gate.pair g with
      | Some (a, b) -> Topology.are_adjacent topo a b
      | None -> true)
    (Circuit.gates circ)

let test_route_line () =
  let topo = Topology.line 4 in
  let circ = Circuit.create 4 [ cnot 0 3; cnot 1 2 ] in
  let r = Sabre.route topo circ in
  Alcotest.(check bool) "respects topology" true (respects_topology topo r.Sabre.circuit);
  Alcotest.(check bool) "needs swaps" true (r.Sabre.num_swaps > 0);
  Alcotest.(check int) "2q conserved" (2 + r.Sabre.num_swaps)
    (Circuit.count_2q r.Sabre.circuit)

let test_route_adjacent_needs_no_swap () =
  let topo = Topology.line 3 in
  let circ = Circuit.create 3 [ cnot 0 1; cnot 1 2; h 0; rz 0.4 2 ] in
  let r = Sabre.route topo circ in
  Alcotest.(check int) "no swaps" 0 r.Sabre.num_swaps;
  Alcotest.(check int) "gates preserved" 4 (Circuit.length r.Sabre.circuit)

(* permutation matrix of a full layout (n_logical = n_physical): maps the
   logical basis into the physical basis *)
let perm_matrix n layout =
  let dim = 1 lsl n in
  let m = Cmat.create dim dim in
  for logical = 0 to dim - 1 do
    let physical = ref 0 in
    for l = 0 to n - 1 do
      let bit = (logical lsr (n - 1 - l)) land 1 in
      if bit = 1 then begin
        let p = Layout.physical_of layout l in
        physical := !physical lor (1 lsl (n - 1 - p))
      end
    done;
    Cmat.set m !physical logical Complex.one
  done;
  m

let routed_equivalent topo circ =
  let r = Sabre.route topo circ in
  let n = Circuit.num_qubits circ in
  let u_logical = Unitary.circuit_unitary circ in
  let u_routed = Unitary.circuit_unitary (Rebase.to_cnot_basis r.Sabre.circuit) in
  (* U_routed · M_init = M_final · U_logical *)
  let lhs = Cmat.mul u_routed (perm_matrix n r.Sabre.initial_layout) in
  let rhs = Cmat.mul (perm_matrix n r.Sabre.final_layout) u_logical in
  respects_topology topo r.Sabre.circuit && Helpers.unitary_equiv ~tol:1e-7 lhs rhs

let random_circuit_gen n =
  let open QCheck2.Gen in
  let pairs =
    map
      (fun (a, d) ->
        let b = (a + 1 + d) mod n in
        a, b)
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 2)))
  in
  list_size (int_range 0 20)
    (oneof
       [
         map (fun (a, b) -> cnot a b) pairs;
         map (fun q -> h q) (int_range 0 (n - 1));
         map (fun (q, t) -> rz t q) (pair (int_range 0 (n - 1)) Helpers.angle_gen);
       ])

let prop_route_preserves_unitary_line =
  Helpers.qtest ~count:60 "routing on a line preserves the permuted unitary"
    (random_circuit_gen 4)
    (fun gates -> routed_equivalent (Topology.line 4) (Circuit.create 4 gates))

let prop_route_preserves_unitary_ring =
  Helpers.qtest ~count:40 "routing on a ring preserves the permuted unitary"
    (random_circuit_gen 4)
    (fun gates -> routed_equivalent (Topology.ring 4) (Circuit.create 4 gates))

let prop_route_respects_topology_heavy_hex =
  Helpers.qtest ~count:20 "routing respects heavy-hex adjacency"
    (random_circuit_gen 8)
    (fun gates ->
      let topo = Topology.heavy_hex ~widths:[ 5; 5 ] in
      let circ = Circuit.create 8 gates in
      let r = Sabre.route topo circ in
      respects_topology topo r.Sabre.circuit)

let test_refinement_not_worse_much () =
  (* refinement should yield a valid routing too *)
  let topo = Topology.line 5 in
  let gates = [ cnot 0 4; cnot 1 3; cnot 0 2; cnot 2 4; cnot 1 4 ] in
  let circ = Circuit.create 5 gates in
  let r = Sabre.route_with_refinement ~iterations:2 topo circ in
  Alcotest.(check bool) "valid" true (respects_topology topo r.Sabre.circuit)

let test_bridge_routing_correct () =
  (* CNOT(0,2) on a 3-line with no other gates: bridge applies, layout
     unchanged, unitary preserved exactly (no output permutation). *)
  let topo = Topology.line 3 in
  let circ = Circuit.create 3 [ cnot 0 2 ] in
  let r = Sabre.route ~use_bridge:true topo circ in
  Alcotest.(check int) "no swaps" 0 r.Sabre.num_swaps;
  Alcotest.(check int) "four cnots" 4 (Circuit.count_2q r.Sabre.circuit);
  Alcotest.(check bool) "topology ok" true (respects_topology topo r.Sabre.circuit);
  Helpers.check_equiv "bridge unitary"
    (Unitary.circuit_unitary circ)
    (Unitary.circuit_unitary r.Sabre.circuit)

let prop_bridge_routing_equivalent =
  Helpers.qtest ~count:40 "bridge-enabled routing preserves permuted unitary"
    (random_circuit_gen 4)
    (fun gates ->
      let topo = Topology.line 4 in
      let circ = Circuit.create 4 gates in
      let r = Sabre.route ~use_bridge:true topo circ in
      let n = Circuit.num_qubits circ in
      let u_logical = Unitary.circuit_unitary circ in
      let u_routed = Unitary.circuit_unitary (Rebase.to_cnot_basis r.Sabre.circuit) in
      let lhs = Cmat.mul u_routed (perm_matrix n r.Sabre.initial_layout) in
      let rhs = Cmat.mul (perm_matrix n r.Sabre.final_layout) u_logical in
      respects_topology topo r.Sabre.circuit
      && Helpers.unitary_equiv ~tol:1e-7 lhs rhs)

let test_device_too_small () =
  Alcotest.check_raises "too small"
    (Invalid_argument
       "Sabre.route: circuit needs 3 logical qubits but the device has only 2")
    (fun () ->
      ignore (Sabre.route (Topology.line 2) (Circuit.create 3 [ cnot 0 2 ])))

(* --- differential: the flat router against the reference oracle --- *)

module Clifford2q = Helpers.Clifford2q
module Pauli = Helpers.Pauli
module Placement = Phoenix_router.Placement

let diff_topologies =
  [|
    "line 7", Topology.line 7;
    "ring 6", Topology.ring 6;
    "grid 3x3", Topology.grid ~rows:3 ~cols:3;
    "heavy-hex 5/5", Topology.heavy_hex ~widths:[ 5; 5 ];
  |]

type diff_case = {
  topo : int; (* index into [diff_topologies] *)
  n_log : int;
  gates : Gate.t list;
  layout : [ `Trivial | `Placement | `Shuffled of int array ];
  lookahead : int;
  decay : float;
  use_bridge : bool;
  iterations : int;
}

let diff_gate_gen n =
  let open QCheck2.Gen in
  let* a = int_range 0 (n - 1) in
  let* d = int_range 1 (n - 1) in
  let b = (a + d) mod n in
  let* kind = oneofl Clifford2q.all_kinds in
  let* t = Helpers.angle_gen in
  let* p0 = oneofl [ Pauli.X; Pauli.Y; Pauli.Z ] in
  let* p1 = oneofl [ Pauli.X; Pauli.Y; Pauli.Z ] in
  oneofl
    [
      Gate.G1 (Gate.H, a);
      Gate.G1 (Gate.Rz t, b);
      Gate.Cnot (a, b);
      Gate.Cnot (a, b);
      Gate.Cnot (a, b);
      Gate.Cliff2 (Clifford2q.make kind a b);
      Gate.Rpp { p0; p1; a; b; theta = t };
      Gate.Su4 { a; b; parts = [ Gate.Cnot (a, b); Gate.G1 (Gate.Rz t, a) ] };
    ]

let diff_case_gen =
  let open QCheck2.Gen in
  let* topo = int_range 0 (Array.length diff_topologies - 1) in
  let n_phys = Topology.num_qubits (snd diff_topologies.(topo)) in
  let* n_log = int_range 2 n_phys in
  let* gates = list_size (int_range 0 60) (diff_gate_gen n_log) in
  let* layout =
    oneof
      [
        return `Trivial;
        return `Placement;
        map
          (fun perm -> `Shuffled (Array.sub perm 0 n_log))
          (shuffle_a (Array.init n_phys Fun.id));
      ]
  in
  let* lookahead = oneofl [ 1; 2; 20 ] in
  (* a negative decay makes the scores cycle, which drives the stall
     counter into the shortest-path fallback *)
  let* decay = oneofl [ 0.001; 0.001; -1.0 ] in
  let* use_bridge = bool in
  let* iterations = oneofl [ 0; 1; 1; 2 ] in
  return { topo; n_log; gates; layout; lookahead; decay; use_bridge; iterations }

let print_diff_case c =
  Printf.sprintf
    "%s, %d logical, lookahead %d, decay %g, bridge %b, iterations %d, %s:\n%s"
    (fst diff_topologies.(c.topo))
    c.n_log c.lookahead c.decay c.use_bridge c.iterations
    (match c.layout with
    | `Trivial -> "trivial layout"
    | `Placement -> "placement layout"
    | `Shuffled l2p ->
      "layout " ^ String.concat " " (Array.to_list (Array.map string_of_int l2p)))
    (String.concat "\n" (List.map Gate.to_string c.gates))

let case_initial c topo circ =
  match c.layout with
  | `Trivial -> None
  | `Placement -> Some (Placement.of_circuit topo circ)
  | `Shuffled l2p -> Some (Layout.of_l2p ~n_physical:(Topology.num_qubits topo) l2p)

(* Gates compare with their angles as bits, so a reordering that happens
   to be structurally equal up to float rounding still counts. *)
let same_gate g h =
  Gate.equal g h
  && List.equal Int64.equal
       (Gate.fold_angles (fun acc t -> Int64.bits_of_float t :: acc) [] g)
       (Gate.fold_angles (fun acc t -> Int64.bits_of_float t :: acc) [] h)

let same_result label (fast : Sabre.result) (slow : Sabre.result) =
  let ok =
    List.equal same_gate (Circuit.gates fast.Sabre.circuit)
      (Circuit.gates slow.Sabre.circuit)
    && Circuit.num_qubits fast.Sabre.circuit = Circuit.num_qubits slow.Sabre.circuit
    && Layout.equal fast.Sabre.initial_layout slow.Sabre.initial_layout
    && Layout.equal fast.Sabre.final_layout slow.Sabre.final_layout
    && fast.Sabre.num_swaps = slow.Sabre.num_swaps
  in
  ok
  || QCheck2.Test.fail_reportf "%s diverged: %d vs reference %d swaps, %d vs %d gates"
       label fast.Sabre.num_swaps slow.Sabre.num_swaps
       (Circuit.length fast.Sabre.circuit)
       (Circuit.length slow.Sabre.circuit)

let prop_route_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"route = route_reference"
       ~print:print_diff_case diff_case_gen (fun c ->
         let topo = snd diff_topologies.(c.topo) in
         let circ = Circuit.create c.n_log c.gates in
         let initial = case_initial c topo circ in
         same_result "route"
           (Sabre.route ?initial ~lookahead:c.lookahead ~decay:c.decay
              ~use_bridge:c.use_bridge topo circ)
           (Sabre.route_reference ?initial ~lookahead:c.lookahead ~decay:c.decay
              ~use_bridge:c.use_bridge topo circ)))

let prop_refinement_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150
       ~name:"route_with_refinement = route_with_refinement_reference"
       ~print:print_diff_case diff_case_gen (fun c ->
         let topo = snd diff_topologies.(c.topo) in
         let circ = Circuit.create c.n_log c.gates in
         let initial =
           match c.layout with `Trivial -> None | _ -> case_initial c topo circ
         in
         same_result "route_with_refinement"
           (Sabre.route_with_refinement ?initial ~iterations:c.iterations
              ~lookahead:c.lookahead ~use_bridge:c.use_bridge topo circ)
           (Sabre.route_with_refinement_reference ?initial
              ~iterations:c.iterations ~lookahead:c.lookahead
              ~use_bridge:c.use_bridge topo circ)))

(* A long random program on a sparse device, where the SWAP count passes
   [5 * n_phys] (the decay reset) many times over. *)
let test_long_route_matches_reference () =
  let topo = Topology.heavy_hex ~widths:[ 5; 5 ] in
  let n = Topology.num_qubits topo in
  let rng = Phoenix_util.Prng.create 2024 in
  let gates =
    List.init 600 (fun _ ->
        let a = Phoenix_util.Prng.int rng n in
        let b = (a + 1 + Phoenix_util.Prng.int rng (n - 1)) mod n in
        cnot a b)
  in
  let circ = Circuit.create n gates in
  let fast = Sabre.route_with_refinement topo circ
  and slow = Sabre.route_with_refinement_reference topo circ in
  Alcotest.(check bool) "many decay resets" true (fast.Sabre.num_swaps > 10 * n);
  Alcotest.(check bool) "identical" true (same_result "long route" fast slow)

let raised f = match f () with _ -> None | exception Invalid_argument m -> Some m

let test_rejections_match_reference () =
  let disconnected = Topology.make 4 [ 0, 1; 2, 3 ] in
  List.iter
    (fun (label, topo, circ) ->
      let fast = raised (fun () -> Sabre.route topo circ)
      and slow = raised (fun () -> Sabre.route_reference topo circ) in
      Alcotest.(check bool) (label ^ " raises") true (fast <> None);
      Alcotest.(check (option string)) (label ^ ": route") slow fast;
      let fast = raised (fun () -> Sabre.route_with_refinement topo circ)
      and slow = raised (fun () -> Sabre.route_with_refinement_reference topo circ) in
      Alcotest.(check bool) (label ^ " refinement raises") true (fast <> None);
      Alcotest.(check (option string)) (label ^ ": refinement") slow fast)
    [
      "too small", Topology.line 2, Circuit.create 3 [ cnot 0 2 ];
      "disconnected", disconnected, Circuit.create 2 [ cnot 0 1 ];
    ];
  Alcotest.(check (option string)) "disconnected wording"
    (Some
       "Sabre.route: the 4-qubit coupling graph is disconnected — routing \
        cannot reach every qubit")
    (raised (fun () -> Sabre.route disconnected (Circuit.create 2 [ cnot 0 1 ])));
  (* the flat distance table would alias rows under a layout for another
     device size, so such a layout is refused up front *)
  Alcotest.(check bool) "layout for another device" true
    (raised (fun () ->
         Sabre.route
           ~initial:(Layout.trivial ~n_logical:2 ~n_physical:3)
           (Topology.line 4)
           (Circuit.create 2 [ cnot 0 1 ]))
    <> None)

let () =
  Alcotest.run "router"
    [
      ( "layout",
        [
          Alcotest.test_case "trivial" `Quick test_layout_trivial;
          Alcotest.test_case "swap" `Quick test_layout_swap;
          Alcotest.test_case "injective" `Quick test_layout_injective;
        ] );
      ( "sabre",
        [
          Alcotest.test_case "line routing" `Quick test_route_line;
          Alcotest.test_case "adjacent no swaps" `Quick
            test_route_adjacent_needs_no_swap;
          Alcotest.test_case "refinement valid" `Quick test_refinement_not_worse_much;
          Alcotest.test_case "bridge routing" `Quick test_bridge_routing_correct;
          Alcotest.test_case "device too small" `Quick test_device_too_small;
        ] );
      ( "props",
        [
          prop_route_preserves_unitary_line;
          prop_route_preserves_unitary_ring;
          prop_route_respects_topology_heavy_hex;
          prop_bridge_routing_equivalent;
        ] );
      ( "oracle",
        [
          prop_route_matches_reference;
          prop_refinement_matches_reference;
          Alcotest.test_case "long route" `Quick test_long_route_matches_reference;
          Alcotest.test_case "rejections" `Quick test_rejections_match_reference;
        ] );
    ]

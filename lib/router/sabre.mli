(** SABRE-style SWAP routing (Li, Ding, Xie — ASPLOS 2019).

    Maps a logical circuit onto a coupling graph by greedily inserting
    SWAP gates chosen by a front-layer + lookahead distance heuristic with
    a decay factor that spreads consecutive swaps across qubits.  Any 2Q
    gate type in the circuit IR is routed (Cliff2/Rpp/Su4 included); the
    result contains explicit [Swap] gates, which a later
    {!Phoenix_circuit.Rebase.to_cnot_basis} pass expands into 3 CNOTs. *)

type result = {
  circuit : Phoenix_circuit.Circuit.t;
      (** routed circuit over the device's physical qubits *)
  initial_layout : Layout.t;
  final_layout : Layout.t;
  num_swaps : int;
}

val route :
  ?initial:Layout.t ->
  ?lookahead:int ->
  ?decay:float ->
  ?seed:int ->
  ?use_bridge:bool ->
  Phoenix_topology.Topology.t ->
  Phoenix_circuit.Circuit.t ->
  result
(** Route with a fixed initial layout (default: trivial).  [lookahead]
    (default 20) is the extended-set size; [decay] (default 0.001) the
    per-use penalty increment.  With [use_bridge] (default false), a
    front CNOT at distance 2 whose qubits no upcoming gate touches is
    realized by the 4-CNOT bridge template (Itoko et al.) instead of
    SWAPs, leaving the layout unchanged.  Raises [Invalid_argument] when
    the device is too small or disconnected, or when [initial] is not a
    layout over the device's qubits placing every circuit qubit.

    The router runs on flat per-call state (CSR dependency rows, a
    row-stride distance table, in-place candidate scoring) and is
    bit-identical to {!route_reference}: same gates in the same order,
    same layouts, same SWAP count, same tie-break draws. *)

val route_with_refinement :
  ?initial:Layout.t ->
  ?iterations:int ->
  ?lookahead:int ->
  ?seed:int ->
  ?use_bridge:bool ->
  Phoenix_topology.Topology.t ->
  Phoenix_circuit.Circuit.t ->
  result
(** SABRE's bidirectional initial-layout refinement: starting from
    [initial] (default: interaction-aware placement), alternate
    forward/backward routing passes ([iterations] round trips, default
    1), then route forward with the better of the refined and the seed
    layout.  The first forward pass starts from the seed layout, so it is
    also the seed layout's final routing: it runs once, and a default
    call routes three times, not four.  [iterations <= 0] routes the seed
    layout only.  Bit-identical to {!route_with_refinement_reference}. *)

val route_reference :
  ?initial:Layout.t ->
  ?lookahead:int ->
  ?decay:float ->
  ?seed:int ->
  ?use_bridge:bool ->
  Phoenix_topology.Topology.t ->
  Phoenix_circuit.Circuit.t ->
  result
(** Test oracle: the list-based router {!route} replaced (per-step
    sorted head lists, a fresh layout per scored candidate).  Not for
    production use; the differential tests compare {!route} against it. *)

val route_with_refinement_reference :
  ?initial:Layout.t ->
  ?iterations:int ->
  ?lookahead:int ->
  ?seed:int ->
  ?use_bridge:bool ->
  Phoenix_topology.Topology.t ->
  Phoenix_circuit.Circuit.t ->
  result
(** Test oracle: refinement over {!route_reference} that routes the seed
    layout twice (once as the first forward pass, once as the fallback
    candidate), as before the seed-layout pass was shared. *)

val route_commuting :
  ?initial:Layout.t ->
  Phoenix_topology.Topology.t ->
  Phoenix_circuit.Circuit.t ->
  result
(** Routing for circuits whose gates all mutually commute (e.g. a QAOA
    cost layer, which is Z-diagonal): gate order is treated as free, so
    at every step all currently-adjacent interactions execute and SWAPs
    are chosen against the whole pending set — the strategy 2QAN
    pioneered for 2-local programs.  The caller must guarantee
    commutativity. *)

(** Tetris-like IR group ordering (§IV-C).

    Simplified IR groups are pre-arranged by descending width, then
    assembled greedily: a look-ahead window is scanned for the block whose
    assembly cost against the last placed block is minimal.  The cost
    combines the endian-vector depth overhead (Fig. 3), a discount for
    Hermitian Clifford2Q pairs that cancel across the interface (Fig. 4a),
    and — in routing-aware mode — the interaction-graph similarity factor
    of Eq. 7 (Fig. 4b).

    Each block's boundary signature (2Q layer count, endian deficits,
    first/last-layer qubits, exposed Clifford2Q keys, support, and in
    routing-aware mode its head/tail interaction distances) is built once
    on the block's own support, so scoring a candidate costs what the two
    blocks touch rather than the register width.  The results are
    bit-identical to {!assembly_cost_reference} and {!order_reference}. *)

type block = { group : Group.t; circuit : Phoenix_circuit.Circuit.t }

val assembly_cost : ?routing_aware:bool -> block -> block -> float
(** [assembly_cost prev next]: the uniform cost of placing [next] right
    after [prev].  Raises [Invalid_argument] if the circuits' qubit counts
    differ. *)

val order :
  ?lookahead:int -> ?routing_aware:bool -> block list -> block list
(** Order blocks ([lookahead] defaults to 10).  Within the window the
    earliest candidate wins unless a later one is strictly cheaper.  The
    relative order of blocks only changes within the reordering freedom of
    Trotterization.  Raises [Invalid_argument] if [lookahead < 1]. *)

val exposed_boundary_cliffords :
  [ `Leading | `Trailing ] ->
  Phoenix_circuit.Circuit.t ->
  Phoenix_pauli.Clifford2q.t list
(** Clifford2Q gates visible at a circuit boundary: not shadowed by any
    other gate on their qubits (exposed for cross-interface
    cancellation).  Exposed for testing. *)

val assembly_cost_reference : ?routing_aware:bool -> block -> block -> float
(** The same cost evaluated by rescanning both circuits over the whole
    register ([Endian], [Interaction.similarity]) for every call.  Test
    oracle for {!assembly_cost}. *)

val order_reference :
  ?lookahead:int -> ?routing_aware:bool -> block list -> block list
(** {!order} over {!assembly_cost_reference} with list-filtered windows.
    Test oracle for {!order}; requires [lookahead >= 1]. *)

(** Hardware coupling graphs.

    A topology is an undirected connectivity graph over physical qubits,
    with all-pairs shortest-path distances computed once and cached. *)

type t

val make : int -> (int * int) list -> t
(** [make n edges].  Self-loops and out-of-range endpoints raise
    [Invalid_argument]. *)

val num_qubits : t -> int
val edges : t -> (int * int) list
(** Normalized (small endpoint first), sorted, unique. *)

val neighbors : t -> int -> int list
val are_adjacent : t -> int -> int -> bool

val distance : t -> int -> int -> int
(** Shortest-path length.  Unreachable pairs return the qubit count, a
    finite sentinel larger than any true distance. *)

val distance_matrix : t -> int array array
(** Shared cached matrix — do not mutate. *)

val distance_table : t -> int array
(** The same distances in one row-stride array: entry [a * n + b] is
    [distance t a b] for an [n]-qubit topology.  Built once per topology
    and shared — do not mutate.  Hot loops index it directly instead of
    calling {!distance} per pair. *)

val is_connected : t -> bool

val all_to_all : int -> t
val line : int -> t
val ring : int -> t
val grid : rows:int -> cols:int -> t

val heavy_hex : widths:int list -> t
(** Heavy-hex lattice: horizontal rows of qubits with the given widths,
    consecutive rows joined by bridge qubits placed every fourth column
    (columns 0, 4, 8, … below even-indexed rows and 2, 6, 10, … below odd
    ones, clipped to both rows).  This is the IBM heavy-hex pattern. *)

val ibm_manhattan : unit -> t
(** The 64-qubit Manhattan-class heavy-hex used in the paper's
    hardware-aware evaluation: rows of 10/11/11/11/10 qubits plus 11
    bridges. *)

val pp : Format.formatter -> t -> unit

(** Qubit interaction graphs and the routing-similarity factor of Eq. 7.

    The interaction graph of a gate list has an edge between two qubits
    whenever some 2Q gate acts on both.  The similarity [s] between the
    tail of a preceding subcircuit and the head of a succeeding one is the
    sum of row-wise cosine similarities of their graph distance matrices;
    similar interaction behaviour means less mapping-transition overhead. *)

val adjacency : int -> Gate.t list -> bool array array
(** [adjacency n gates] is the symmetric interaction adjacency matrix. *)

val distance_matrix : bool array array -> int array array
(** All-pairs shortest-path lengths by BFS.  Unreachable pairs are assigned
    the matrix dimension (a finite sentinel larger than any real
    distance). *)

val head_part : Circuit.t -> Gate.t list
(** Minimal prefix of 2Q gates (from the left) that touches every qubit
    used by the circuit's 2Q gates. *)

val tail_part : Circuit.t -> Gate.t list
(** Mirror of [head_part] from the right. *)

val min_similarity : float
(** The lower clamp of {!similarity}. *)

val similarity : pre:Circuit.t -> suc:Circuit.t -> float
(** Eq. 7: [s = Σ_i ⟨D_i, D'_i⟩ / (‖D_i‖·‖D'_i‖)] where [D] ([D']) is the
    distance matrix of the tail (head) interaction graph of [pre] ([suc]).
    Rows with zero norm are skipped; the result is clamped below by a small
    positive value so that [cost/s] stays finite. *)

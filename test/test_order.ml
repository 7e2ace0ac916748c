(* Differential suite for the Tetris-like ordering: the signature-based
   [Order.assembly_cost] must equal the whole-register reference bit for
   bit, and [Order.order] must pick the very same block sequence as
   [Order.order_reference], with and without routing awareness. *)

module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Clifford2q = Helpers.Clifford2q
module Pauli = Helpers.Pauli
module Pauli_string = Helpers.Pauli_string
module Order = Phoenix.Order
module Group = Phoenix.Group

open QCheck2.Gen

(* A group of the given width: only its weight matters to the ordering
   (the descending-width pre-arrangement). *)
let group_of_width n w =
  Group.of_terms n
    [ (Pauli_string.of_list (List.init n (fun i -> if i < w then Pauli.Z else Pauli.I)), 0.1) ]

(* Two distinct qubits drawn from [qs] (at least two long). *)
let pair_in qs =
  let k = Array.length qs in
  let* i = int_range 0 (k - 1) in
  let* d = int_range 1 (k - 1) in
  return (qs.(i), qs.((i + d) mod k))

let one_q_gen qs =
  let* q = oneofa qs in
  oneofl [ Gate.G1 (Gate.H, q); Gate.G1 (Gate.S, q); Gate.G1 (Gate.Rz 0.3, q) ]

let two_q_gen qs =
  let* a, b = pair_in qs in
  let* kind = oneofl Clifford2q.all_kinds in
  oneofl
    [
      Gate.Cnot (a, b);
      Gate.Cliff2 (Clifford2q.make kind a b);
      Gate.Cliff2 (Clifford2q.make kind a b);
      Gate.Rpp { p0 = Pauli.Z; p1 = Pauli.X; a; b; theta = 0.7 };
      Gate.Swap (a, b);
      Gate.Su4 { a; b; parts = [ Gate.Cnot (a, b) ] };
    ]

(* A layer of Cliff2 gates on disjoint pairs of [qs], of any kind. *)
let cliff_layer_gen qs =
  let* perm = shuffle_a (Array.copy qs) in
  let* pairs = int_range 1 (max 1 (Array.length perm / 2)) in
  let* kinds = list_size (return pairs) (oneofl Clifford2q.all_kinds) in
  let* swapped = list_size (return pairs) bool in
  return
    (List.mapi
       (fun i (kind, sw) ->
         let a = perm.(2 * i) and b = perm.((2 * i) + 1) in
         let a, b = if sw then b, a else a, b in
         Gate.Cliff2 (Clifford2q.make kind a b))
       (List.combine kinds swapped))

let body_gen qs =
  if Array.length qs >= 2 then
    list_size (int_range 0 6) (frequency [ (1, one_q_gen qs); (3, two_q_gen qs) ])
  else if Array.length qs = 1 then list_size (int_range 0 3) (one_q_gen qs)
  else return []

let block_gen n frames =
  let all = Array.init n Fun.id in
  let* k = int_range 0 (min n 5) in
  let* perm = shuffle_a (Array.copy all) in
  let qs = Array.sub perm 0 k in
  Array.sort compare qs;
  let* shape = int_range 0 5 in
  let* gates =
    match shape with
    | 0 -> return []
    | 1 -> list_size (int_range 1 4) (if k = 0 then one_q_gen all else one_q_gen qs)
    | 2 when frames <> [] ->
      (* [frame; body; frame']: the cancelling-boundary case. *)
      let* left = oneofl frames in
      let* right = oneofl frames in
      let* body = body_gen qs in
      return (left @ body @ right)
    | 3 when frames <> [] ->
      let* frame = oneofl frames in
      return frame
    | _ -> body_gen qs
  in
  let* w = int_range 1 n in
  return { Order.group = group_of_width n w; circuit = Circuit.create n gates }

(* A register of [n] qubits and a small set of shared Cliff2 frames, so
   that blocks drawn from it often open and close on the same layer. *)
let pool_gen =
  let* n = int_range 1 9 in
  let all = Array.init n Fun.id in
  let* frames = if n >= 2 then list_size (int_range 1 3) (cliff_layer_gen all) else return [] in
  let* size = int_range 0 12 in
  let* blocks = list_size (return size) (block_gen n frames) in
  return (n, blocks)

let print_pool (n, blocks) =
  Printf.sprintf "n=%d\n%s" n
    (String.concat "\n"
       (List.map
          (fun b ->
            Printf.sprintf "w=%d [%s]" (Group.weight b.Order.group)
              (String.concat "; " (List.map Gate.to_string (Circuit.gates b.Order.circuit))))
          blocks))

let bits x = Int64.bits_of_float x

let prop_cost_bit_identical =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"assembly_cost = reference (bits)" ~print:print_pool
       pool_gen (fun (_, blocks) ->
         List.for_all
           (fun p ->
             List.for_all
               (fun q ->
                 List.for_all
                   (fun routing_aware ->
                     let fast = Order.assembly_cost ~routing_aware p q in
                     let slow = Order.assembly_cost_reference ~routing_aware p q in
                     bits fast = bits slow
                     || QCheck2.Test.fail_reportf "routing_aware=%b: %h vs reference %h"
                          routing_aware fast slow)
                   [ false; true ])
               blocks)
           blocks))

let prop_order_identical =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"order = reference (same blocks, same sequence)"
       ~print:print_pool pool_gen (fun (_, blocks) ->
         List.for_all
           (fun lookahead ->
             List.for_all
               (fun routing_aware ->
                 let fast = Order.order ~lookahead ~routing_aware blocks in
                 let slow = Order.order_reference ~lookahead ~routing_aware blocks in
                 (List.length fast = List.length slow && List.for_all2 ( == ) fast slow)
                 || QCheck2.Test.fail_reportf "lookahead=%d routing_aware=%b diverged" lookahead
                      routing_aware)
               [ false; true ])
           [ 1; 2; 3; 10; List.length blocks + 5 ]))

(* A Cliff2-only boundary layer cancelling on both sides earns the
   layer-saving discount; both engines must see it. *)
let test_layer_saving_case () =
  let c = Clifford2q.make Clifford2q.CXY 1 3 in
  let z = Gate.Rpp { p0 = Pauli.Z; p1 = Pauli.Z; a = 1; b = 3; theta = 0.2 } in
  let g = group_of_width 5 2 in
  let p = { Order.group = g; circuit = Circuit.create 5 [ z; Gate.Cliff2 c ] } in
  let q = { Order.group = g; circuit = Circuit.create 5 [ Gate.Cliff2 c; z ] } in
  let plain = { Order.group = g; circuit = Circuit.create 5 [ z; z ] } in
  List.iter
    (fun routing_aware ->
      Alcotest.(check int64) "bits" (bits (Order.assembly_cost_reference ~routing_aware p q))
        (bits (Order.assembly_cost ~routing_aware p q)))
    [ false; true ];
  Alcotest.(check bool) "discounted" true (Order.assembly_cost p q < Order.assembly_cost plain plain)

let () =
  Alcotest.run "order"
    [
      ("unit", [ Alcotest.test_case "layer saving" `Quick test_layer_saving_case ]);
      ("differential", [ prop_cost_bit_identical; prop_order_identical ]);
    ]

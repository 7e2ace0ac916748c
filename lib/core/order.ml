module Gate = Phoenix_circuit.Gate
module Circuit = Phoenix_circuit.Circuit
module Endian = Phoenix_circuit.Endian
module Interaction = Phoenix_circuit.Interaction
module Clifford2q = Phoenix_pauli.Clifford2q

type block = { group : Group.t; circuit : Circuit.t }

let exposed_boundary_cliffords side circuit =
  let gates =
    match side with
    | `Leading -> Circuit.gates circuit
    | `Trailing -> List.rev (Circuit.gates circuit)
  in
  let n = Circuit.num_qubits circuit in
  let blocked = Array.make n false in
  let rec scan acc = function
    | [] -> acc
    | g :: rest ->
      let qs = Gate.qubits g in
      if List.exists (fun q -> blocked.(q)) qs then begin
        List.iter (fun q -> blocked.(q) <- true) qs;
        scan acc rest
      end
      else begin
        List.iter (fun q -> blocked.(q) <- true) qs;
        match g with
        | Gate.Cliff2 c -> scan (c :: acc) rest
        | Gate.G1 _ | Gate.Cnot _ | Gate.Rpp _ | Gate.Swap _ | Gate.Su4 _ ->
          scan acc rest
      end
  in
  List.rev (scan [] gates)

(* Canonical key so that gates cancelling under [Clifford2q.equal_gate]
   collide. *)
let cliff_key (c : Clifford2q.t) =
  if Clifford2q.is_symmetric c.Clifford2q.kind then
    c.Clifford2q.kind, min c.a c.b, max c.a c.b
  else c.Clifford2q.kind, c.a, c.b

(* --- the reference cost: both circuits rescanned per candidate -------- *)

let key_counts cliffs =
  let table = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let k = cliff_key c in
      Hashtbl.replace table k (1 + Option.value ~default:0 (Hashtbl.find_opt table k)))
    cliffs;
  table

(* Number of Hermitian Clifford2Q pairs cancelling across the interface,
   plus whether cancellation empties the boundary 2Q layer on each side. *)
let cancellation prev next =
  let trailing = exposed_boundary_cliffords `Trailing prev.circuit in
  let leading = exposed_boundary_cliffords `Leading next.circuit in
  let ct = key_counts trailing and cl = key_counts leading in
  let matched_keys = ref [] in
  let m =
    Hashtbl.fold
      (fun k count acc ->
        match Hashtbl.find_opt cl k with
        | Some count' ->
          matched_keys := k :: !matched_keys;
          acc + min count count'
        | None -> acc)
      ct 0
  in
  let layer_all_matched layers pick =
    match pick layers with
    | Some layer ->
      layer <> []
      && List.for_all
           (fun g ->
             match g with
             | Gate.Cliff2 c -> List.mem (cliff_key c) !matched_keys
             | Gate.G1 _ | Gate.Cnot _ | Gate.Rpp _ | Gate.Swap _
             | Gate.Su4 _ ->
               false)
           layer
    | None -> false
  in
  let last l = match List.rev l with x :: _ -> Some x | [] -> None in
  let first l = match l with x :: _ -> Some x | [] -> None in
  let prev_side = m > 0 && layer_all_matched (Circuit.layers_2q prev.circuit) last in
  let next_side = m > 0 && layer_all_matched (Circuit.layers_2q next.circuit) first in
  m, prev_side, next_side

let support_size c = List.length (Circuit.used_qubits c)

let assembly_cost_reference ?(routing_aware = false) prev next =
  let e_r = Endian.right prev.circuit and e_l' = Endian.left next.circuit in
  let base = float_of_int (Endian.depth_cost ~e_r ~e_l') in
  let m, prev_side, next_side = cancellation prev next in
  let layer_saving side circ = if side then float_of_int (support_size circ) else 0.0 in
  let cost =
    base
    -. (2.0 *. float_of_int m)
    -. layer_saving prev_side prev.circuit
    -. layer_saving next_side next.circuit
  in
  if routing_aware then
    cost /. Interaction.similarity ~pre:prev.circuit ~suc:next.circuit
  else cost

let order_reference ?(lookahead = 10) ?(routing_aware = false) blocks =
  match blocks with
  | [] | [ _ ] -> blocks
  | _ ->
    (* Pre-arrange in descending width; stable for equal widths. *)
    let pool =
      List.stable_sort
        (fun a b -> compare (Group.weight b.group) (Group.weight a.group))
        blocks
    in
    let rec assemble acc last pool =
      match pool with
      | [] -> List.rev acc
      | _ ->
        let window = List.filteri (fun i _ -> i < lookahead) pool in
        let best, _ =
          List.fold_left
            (fun (best, best_cost) cand ->
              let cost = assembly_cost_reference ~routing_aware last cand in
              match best with
              | Some _ when best_cost <= cost -> best, best_cost
              | Some _ | None -> Some cand, cost)
            (None, Float.infinity) window
        in
        let chosen = match best with Some b -> b | None -> assert false in
        let pool' = List.filter (fun b -> b != chosen) pool in
        assemble (chosen :: acc) chosen pool'
    in
    (match pool with
    | first :: rest -> assemble [ first ] first rest
    | [] -> assert false)

(* --- boundary signatures ---------------------------------------------- *)

(* Tail and head interaction distances over the block's support (local
   labels), unreachable pairs at the register-width sentinel, with each
   row's squared norm as the register-wide row would have it: the
   columns outside the support all hold the sentinel. *)
type distances = { dist : int array array; norm2 : int array }

type signature = {
  n : int;  (** register width *)
  support : int array;  (** ascending global qubits touched by any gate *)
  layers : int;  (** 2Q layer count [L] *)
  def_left : int;  (** [Σ (L − e_l)] over the touched qubits *)
  def_right : int;  (** [Σ (L − e_r)] over the touched qubits *)
  first_qubits : int array;  (** ascending qubits of the first 2Q layer *)
  last_qubits : int array;  (** ascending qubits of the last 2Q layer *)
  leading : int array;  (** ascending keys of the exposed leading Cliff2s *)
  trailing : int array;  (** ascending keys of the exposed trailing Cliff2s *)
  first_keys : int array option;  (** first-layer keys if all are Cliff2 *)
  last_keys : int array option;  (** last-layer keys if all are Cliff2 *)
  routing : (distances * distances) Lazy.t;  (** head and tail *)
}

let kind_code = function
  | Clifford2q.CXX -> 0
  | Clifford2q.CYY -> 1
  | Clifford2q.CZZ -> 2
  | Clifford2q.CXY -> 3
  | Clifford2q.CYZ -> 4
  | Clifford2q.CZX -> 5

(* [cliff_key] packed into one int over global qubits. *)
let key_code n c =
  let kind, a, b = cliff_key c in
  (((kind_code kind * n) + a) * n) + b

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let index_of sorted x =
  let rec go lo hi =
    if lo >= hi then raise Not_found
    else
      let mid = (lo + hi) / 2 in
      let y = sorted.(mid) in
      if y = x then mid else if y < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length sorted)

let mem x sorted =
  match index_of sorted x with _ -> true | exception Not_found -> false

let distances n local parts =
  let k = Circuit.num_qubits local in
  let dist = Interaction.distance_matrix (Interaction.adjacency k parts) in
  (* Local BFS marks unreachable with [k]; real distances stay below it. *)
  Array.iter
    (fun row -> Array.iteri (fun j d -> if d = k then row.(j) <- n) row)
    dist;
  let outside = (n - k) * n * n in
  let norm2 =
    Array.map (fun row -> Array.fold_left (fun acc d -> acc + (d * d)) outside row) dist
  in
  { dist; norm2 }

(* The circuit relabelled onto its support in ascending order: ASAP
   layers, exposure and [cliff_key]'s min/max all survive a monotone
   relabelling. *)
let relabel support circuit =
  Circuit.of_validated
    (max 1 (Array.length support))
    (Circuit.gates (Circuit.map_qubits (index_of support) circuit))

let signature circuit =
  let n = Circuit.num_qubits circuit in
  let support =
    Array.of_list
      (List.sort_uniq compare (List.concat_map Gate.qubits (Circuit.gates circuit)))
  in
  let local = relabel support circuit in
  let global q = support.(q) in
  let layers = Circuit.layers_2q local in
  let num_layers = List.length layers in
  (* Qubits outside the 2Q layers have endian [L] and add nothing. *)
  let deficit endian = Array.fold_left (fun acc e -> acc + (num_layers - e)) 0 endian in
  let layer_qubits = function
    | Some layer -> sorted_array (List.concat_map (fun g -> List.map global (Gate.qubits g)) layer)
    | None -> [||]
  in
  let key c = key_code n { c with Clifford2q.a = global c.Clifford2q.a; b = global c.b } in
  let layer_keys = function
    | Some layer ->
      List.fold_right
        (fun g acc ->
          match g, acc with
          | Gate.Cliff2 c, Some ks -> Some (key c :: ks)
          | (Gate.G1 _ | Gate.Cnot _ | Gate.Rpp _ | Gate.Swap _ | Gate.Su4 _), _
          | Gate.Cliff2 _, None ->
            None)
        layer (Some [])
      |> Option.map sorted_array
    | None -> None
  in
  let exposed side = sorted_array (List.map key (exposed_boundary_cliffords side local)) in
  let first = match layers with x :: _ -> Some x | [] -> None in
  let last = match List.rev layers with x :: _ -> Some x | [] -> None in
  {
    n;
    support;
    layers = num_layers;
    def_left = deficit (Endian.left local);
    def_right = deficit (Endian.right local);
    first_qubits = layer_qubits first;
    last_qubits = layer_qubits last;
    leading = exposed `Leading;
    trailing = exposed `Trailing;
    first_keys = layer_keys first;
    last_keys = layer_keys last;
    (* Relabelled again when forced, so that only routing-aware runs
       hold more than O(support) words per block. *)
    routing =
      lazy
        (let local = relabel support circuit in
         ( distances n local (Interaction.head_part local),
           distances n local (Interaction.tail_part local) ));
  }

(* --- O(support) pair scoring ------------------------------------------ *)

let disjoint a b =
  let rec go i j =
    i >= Array.length a
    || j >= Array.length b
    || (let x = a.(i) and y = b.(j) in
        if x = y then false else if x < y then go (i + 1) j else go i (j + 1))
  in
  go 0 0

(* Σ over keys of min(count in a, count in b), both ascending. *)
let common a b =
  let rec go i j acc =
    if i >= Array.length a || j >= Array.length b then acc
    else
      let x = a.(i) and y = b.(j) in
      if x = y then go (i + 1) (j + 1) (acc + 1)
      else if x < y then go (i + 1) j acc
      else go i (j + 1) acc
  in
  go 0 0 0

(* [Endian.depth_cost] in closed form: a qubit outside a block's 2Q layers
   has endian [L], so the sums are [n·L − deficit]; the interface is
   blocked unless some qubit is free on both sides, and with [L = 0] every
   qubit is free. *)
let depth_cost p q =
  let sum = (p.n * (p.layers + q.layers)) - p.def_right - q.def_left in
  let blocked = p.layers > 0 && q.layers > 0 && disjoint p.last_qubits q.first_qubits in
  if blocked then sum else sum - p.n

(* Eq. 7 over the register, row by row in ascending qubit order as
   [Interaction.similarity] sums it.  Every row dot product and squared
   norm is an integer, exact in a float, so only the per-row quotients
   and their running sum are rounded, in the same order.  A row outside
   both supports is the sentinel everywhere but its diagonal on either
   side, so it adds the same [far_term]. *)
let similarity p q =
  let n = p.n in
  let _, tp = Lazy.force p.routing and hq, _ = Lazy.force q.routing in
  let sp = p.support and sq = q.support in
  (* The ascending union of both supports: global qubit, then its local
     index on each side (-1 where absent). *)
  let union =
    let rec go i j acc =
      let x = if i < Array.length sp then sp.(i) else max_int in
      let y = if j < Array.length sq then sq.(j) else max_int in
      if x = max_int && y = max_int then Array.of_list (List.rev acc)
      else if x = y then go (i + 1) (j + 1) ((x, i, j) :: acc)
      else if x < y then go (i + 1) j ((x, i, -1) :: acc)
      else go i (j + 1) ((y, -1, j) :: acc)
    in
    go 0 0 []
  in
  let far = (n - 1) * n * n in
  let far_term =
    let nf = sqrt (float_of_int far) in
    float_of_int far /. (nf *. nf)
  in
  let outside = (n - Array.length union) * n * n in
  let entry d l lx diagonal =
    if l >= 0 && lx >= 0 then d.dist.(l).(lx) else if diagonal then 0 else n
  in
  let s = ref 0.0 and next = ref 0 in
  for i = 0 to n - 1 do
    let x, li, lj = if !next < Array.length union then union.(!next) else (-1, -1, -1) in
    if x = i then begin
      incr next;
      let np = if li >= 0 then tp.norm2.(li) else far in
      let nq = if lj >= 0 then hq.norm2.(lj) else far in
      if np > 0 && nq > 0 then begin
        let dot =
          Array.fold_left
            (fun acc (y, yi, yj) ->
              acc + (entry tp li yi (y = i) * entry hq lj yj (y = i)))
            outside union
        in
        let ni = sqrt (float_of_int np) and ni' = sqrt (float_of_int nq) in
        s := !s +. (float_of_int dot /. (ni *. ni'))
      end
    end
    else if far > 0 then s := !s +. far_term
  done;
  Float.max !s Interaction.min_similarity

let score ~routing_aware p q =
  if p.n <> q.n then invalid_arg "Order.assembly_cost: qubit-count mismatch";
  let base = float_of_int (depth_cost p q) in
  let m = common p.trailing q.leading in
  (* A boundary layer empties when every gate in it is a Cliff2 whose key
     is exposed on both sides of the interface. *)
  let empties keys =
    m > 0
    && match keys with
       | Some ks -> Array.for_all (fun k -> mem k p.trailing && mem k q.leading) ks
       | None -> false
  in
  let layer_saving side s = if side then float_of_int (Array.length s.support) else 0.0 in
  let cost =
    base
    -. (2.0 *. float_of_int m)
    -. layer_saving (empties p.last_keys) p
    -. layer_saving (empties q.first_keys) q
  in
  if routing_aware then cost /. similarity p q else cost

let assembly_cost ?(routing_aware = false) prev next =
  score ~routing_aware (signature prev.circuit) (signature next.circuit)

let order ?(lookahead = 10) ?(routing_aware = false) blocks =
  if lookahead < 1 then invalid_arg "Order.order: lookahead must be at least 1";
  match blocks with
  | [] | [ _ ] -> blocks
  | _ ->
    (* Pre-arrange in descending width; stable for equal widths. *)
    let pool =
      Array.of_list
        (List.stable_sort
           (fun a b -> compare (Group.weight b.group) (Group.weight a.group))
           blocks)
    in
    let sigs = Array.map (fun b -> signature b.circuit) pool in
    (* The window holds the earliest [lookahead] unplaced pool indices in
       pool order; [cursor] is the next index to enter it. *)
    let window = Array.make (min lookahead (Array.length pool - 1)) 0 in
    let size = ref 0 and cursor = ref 1 in
    let refill () =
      while !size < Array.length window && !cursor < Array.length pool do
        window.(!size) <- !cursor;
        incr size;
        incr cursor
      done
    in
    refill ();
    let rec assemble acc last =
      if !size = 0 then List.rev acc
      else begin
        (* The earliest candidate wins unless a later one is strictly
           cheaper. *)
        let best = ref 0 in
        let best_cost = ref (score ~routing_aware sigs.(last) sigs.(window.(0))) in
        for w = 1 to !size - 1 do
          let cost = score ~routing_aware sigs.(last) sigs.(window.(w)) in
          if not (!best_cost <= cost) then begin
            best := w;
            best_cost := cost
          end
        done;
        let chosen = window.(!best) in
        Array.blit window (!best + 1) window !best (!size - !best - 1);
        decr size;
        refill ();
        assemble (pool.(chosen) :: acc) chosen
      end
    in
    assemble [ pool.(0) ] 0

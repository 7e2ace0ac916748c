module Union_find = Phoenix_util.Union_find

type t = {
  n : int;
  edges : (int * int) list;
  adj : int list array;
  dist : int array array Lazy.t;
  table : int array Lazy.t; (* [dist] flattened row-stride: [a * n + b] *)
}

let bfs_distances n adj =
  let dist = Array.make_matrix n n n in
  let queue = Queue.create () in
  for src = 0 to n - 1 do
    dist.(src).(src) <- 0;
    Queue.clear queue;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          if v <> src && dist.(src).(v) = n then begin
            dist.(src).(v) <- dist.(src).(u) + 1;
            Queue.add v queue
          end)
        adj.(u)
    done
  done;
  dist

let make n raw_edges =
  if n <= 0 then invalid_arg "Topology.make: need at least one qubit";
  let normalize (a, b) =
    if a = b then invalid_arg "Topology.make: self-loop";
    if a < 0 || b < 0 || a >= n || b >= n then
      invalid_arg "Topology.make: qubit out of range";
    min a b, max a b
  in
  let edges = List.sort_uniq compare (List.map normalize raw_edges) in
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    edges;
  Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
  let dist = lazy (bfs_distances n adj) in
  let table =
    lazy
      (let d = Lazy.force dist in
       Array.init (n * n) (fun k -> d.(k / n).(k mod n)))
  in
  { n; edges; adj; dist; table }

let num_qubits t = t.n
let edges t = t.edges
let neighbors t q = t.adj.(q)
let are_adjacent t a b = List.mem b t.adj.(a)
let distance_matrix t = Lazy.force t.dist
let distance t a b = (distance_matrix t).(a).(b)
let distance_table t = Lazy.force t.table

let is_connected t =
  let uf = Union_find.create t.n in
  List.iter (fun (a, b) -> Union_find.union uf a b) t.edges;
  Union_find.count uf = 1

let all_to_all n =
  make n
    (List.concat_map
       (fun i -> List.init (n - 1 - i) (fun d -> i, i + 1 + d))
       (List.init n (fun i -> i)))

let line n = make n (List.init (n - 1) (fun i -> i, i + 1))

let ring n =
  if n < 3 then line n
  else make n ((n - 1, 0) :: List.init (n - 1) (fun i -> i, i + 1))

let grid ~rows ~cols =
  let id r c = (r * cols) + c in
  let horizontal =
    List.concat_map
      (fun r -> List.init (cols - 1) (fun c -> id r c, id r (c + 1)))
      (List.init rows (fun r -> r))
  in
  let vertical =
    List.concat_map
      (fun r -> List.init cols (fun c -> id r c, id (r + 1) c))
      (List.init (rows - 1) (fun r -> r))
  in
  make (rows * cols) (horizontal @ vertical)

let heavy_hex ~widths =
  if widths = [] then invalid_arg "Topology.heavy_hex: no rows";
  let widths = Array.of_list widths in
  let n_rows = Array.length widths in
  (* Assign ids: row qubits first (row by row), then bridge qubits. *)
  let row_start = Array.make n_rows 0 in
  for r = 1 to n_rows - 1 do
    row_start.(r) <- row_start.(r - 1) + widths.(r - 1)
  done;
  let total_row_qubits = row_start.(n_rows - 1) + widths.(n_rows - 1) in
  let id r c = row_start.(r) + c in
  let horizontal =
    List.concat_map
      (fun r -> List.init (widths.(r) - 1) (fun c -> id r c, id r (c + 1)))
      (List.init n_rows (fun r -> r))
  in
  let next_bridge = ref total_row_qubits in
  let bridge_edges = ref [] in
  for g = 0 to n_rows - 2 do
    let offset = if g mod 2 = 0 then 0 else 2 in
    let max_col = min widths.(g) widths.(g + 1) - 1 in
    let c = ref offset in
    while !c <= max_col do
      let b = !next_bridge in
      incr next_bridge;
      bridge_edges := (id g !c, b) :: (b, id (g + 1) !c) :: !bridge_edges;
      c := !c + 4
    done
  done;
  make !next_bridge (horizontal @ !bridge_edges)

let ibm_manhattan () = heavy_hex ~widths:[ 10; 11; 11; 11; 10 ]

let pp fmt t =
  Format.fprintf fmt "topology(%d qubits, %d edges)" t.n (List.length t.edges)

module Json = Json
module Compiler = Phoenix.Compiler
module Pass = Phoenix.Pass
module Circuit = Phoenix_circuit.Circuit
module Gate = Phoenix_circuit.Gate
module Diag = Phoenix_verify.Diag
module Finding = Phoenix_analysis.Finding
module Cache = Phoenix_cache.Cache
module Resilience = Phoenix.Resilience

let schema = "phoenix-serve-v1"
let stats_schema = "phoenix-serve-stats-v1"

type status =
  | Sok
  | Sfailed
  | Sbad_request
  | Sverify_errors
  | Slint_errors
  | Sdeadline
  | Soverloaded

let status_code = function
  | Sok -> 0
  | Sfailed -> 1
  | Sbad_request -> 2
  | Sverify_errors -> 3
  | Slint_errors -> 4
  | Sdeadline -> 5
  | Soverloaded -> 6

let status_name = function
  | Sok -> "ok"
  | Sfailed -> "failed"
  | Sbad_request -> "bad-request"
  | Sverify_errors -> "verify-errors"
  | Slint_errors -> "lint-errors"
  | Sdeadline -> "deadline"
  | Soverloaded -> "overloaded"

type source = Builtin of string | Inline of string | Qasm of string

type compile_spec = {
  source : source;
  pipeline : string;
  isa : Compiler.isa;
  topology : string;
  exact : bool;
  verify : bool;
  lint : bool;
  timeout_s : float option;
  budget_checks : int option;
  cache : Cache.tier;
  domains : int;
  template : bool;
  binds : float array list;
  dump : bool;
}

type request =
  | Compile of { id : Json.t; spec : compile_spec }
  | Stats of { id : Json.t }
  | Ping of { id : Json.t }

(* --- request parsing --------------------------------------------------- *)

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

let id_of obj = Option.value (Json.mem "id" obj) ~default:Json.Null

let bool_field obj key ~default =
  match Json.bool_field ~default key obj with
  | Some b -> b
  | None -> reject "field %S must be a boolean" key

let parse_source obj =
  match
    (Json.mem "workload" obj, Json.mem "hamiltonian" obj, Json.mem "qasm" obj)
  with
  | Some w, None, None -> (
    match Json.str w with
    | Some s -> Builtin s
    | None -> reject "field \"workload\" must be a string")
  | None, Some h, None -> (
    match Json.str h with
    | Some s -> Inline s
    | None -> reject "field \"hamiltonian\" must be a string")
  | None, None, Some q -> (
    match Json.str q with
    | Some s -> Qasm s
    | None -> reject "field \"qasm\" must be a string")
  | None, None, None ->
    reject "a compile job needs one of \"workload\", \"hamiltonian\", \"qasm\""
  | _ ->
    reject "\"workload\", \"hamiltonian\" and \"qasm\" are mutually exclusive"

let parse_binds obj =
  let vector j =
    match Json.arr j with
    | None -> reject "bind vectors must be arrays of numbers"
    | Some xs ->
      Array.of_list
        (List.map
           (fun x ->
             match Json.num x with
             | Some f -> f
             | None -> reject "bind vectors must be arrays of numbers")
           xs)
  in
  match (Json.mem "bind" obj, Json.mem "binds" obj) with
  | Some _, Some _ -> reject "\"bind\" and \"binds\" are mutually exclusive"
  | Some b, None -> [ vector b ]
  | None, Some bs -> (
    match Json.arr bs with
    | Some vs -> List.map vector vs
    | None -> reject "field \"binds\" must be an array of vectors")
  | None, None -> []

let parse_compile_spec obj =
  let source = parse_source obj in
  let pipeline =
    match Json.str_field ~default:"phoenix" "pipeline" obj with
    | Some p -> p
    | None -> reject "field \"pipeline\" must be a string"
  in
  let isa =
    match Json.str_field ~default:"cnot" "isa" obj with
    | Some "cnot" -> Compiler.Cnot_isa
    | Some "su4" -> Compiler.Su4_isa
    | Some other -> reject "unknown isa %S (cnot, su4)" other
    | None -> reject "field \"isa\" must be a string"
  in
  let topology =
    match Json.str_field ~default:"all-to-all" "topology" obj with
    | Some t -> t
    | None -> reject "field \"topology\" must be a string"
  in
  let timeout_s =
    match Json.mem "timeout" obj with
    | None -> None
    | Some j -> (
      match Json.num j with
      | Some s when Float.is_finite s && s >= 0.0 -> Some s
      | _ -> reject "field \"timeout\" must be a non-negative number of seconds")
  in
  let budget_checks =
    match Json.mem "budget_checks" obj with
    | None -> None
    | Some j -> (
      match Json.int j with
      | Some k when k >= 1 -> Some k
      | _ -> reject "field \"budget_checks\" must be a positive integer")
  in
  let cache =
    match Json.str_field ~default:"mem" "cache" obj with
    | Some s -> (
      match Cache.tier_of_string s with
      | Some t -> t
      | None -> reject "unknown cache tier %S (off, mem, disk)" s)
    | None -> reject "field \"cache\" must be a string"
  in
  let domains =
    match Json.mem "domains" obj with
    | None -> 1
    | Some j -> (
      match Json.int j with
      | Some d when d >= 1 && d <= 128 -> d
      | _ -> reject "field \"domains\" must be an integer in [1, 128]")
  in
  let template = bool_field obj "template" ~default:false in
  let binds = parse_binds obj in
  {
    source;
    pipeline;
    isa;
    topology;
    exact = bool_field obj "exact" ~default:false;
    verify = bool_field obj "verify" ~default:false;
    lint = bool_field obj "lint" ~default:false;
    timeout_s;
    budget_checks;
    cache;
    domains;
    template;
    binds;
    dump = bool_field obj "dump" ~default:true;
  }

let parse_request line =
  match Json.parse line with
  | Error msg -> Error (Json.Null, msg)
  | Ok (Json.Obj _ as obj) -> (
    let id = id_of obj in
    match
      match Json.str_field ~default:"compile" "op" obj with
      | Some "compile" -> Compile { id; spec = parse_compile_spec obj }
      | Some "stats" -> Stats { id }
      | Some "ping" -> Ping { id }
      | Some other -> reject "unknown op %S (compile, stats, ping)" other
      | None -> reject "field \"op\" must be a string"
    with
    | req -> Ok req
    | exception Reject msg -> Error (id, msg))
  | Ok _ -> Error (Json.Null, "a request must be a JSON object")

(* --- responses --------------------------------------------------------- *)

let error_json severity msg =
  Json.Obj
    [
      ("pass", Json.Str "serve");
      ("severity", Json.Str (Diag.severity_to_string severity));
      ("message", Json.Str msg);
    ]

let ok_response ~id ~status ?error fields =
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("id", id);
       ("status", Json.Num (Float.of_int (status_code status)));
       ("status_name", Json.Str (status_name status));
     ]
    @ fields
    @ match error with
      | None -> []
      | Some msg -> [ ("error", error_json Diag.Error msg) ])

let error_response ~id ~status msg = ok_response ~id ~status ~error:msg []

(* Bit-identity digest: marshal the gate list without sharing so equal
   structures digest equally whatever their in-memory aliasing, and
   float angles compare by their exact IEEE bits. *)
let circuit_digest c =
  Digest.to_hex
    (Digest.string (Marshal.to_string (Circuit.gates c) [ Marshal.No_sharing ]))

let circuit_json ~dump c =
  Json.Obj
    ([
       ("qubits", Json.Num (Float.of_int (Circuit.num_qubits c)));
       ("gates_n", Json.Num (Float.of_int (Circuit.length c)));
       ("digest", Json.Str (circuit_digest c));
     ]
    @
    if dump then
      [
        ( "gates",
          Json.Arr
            (List.map (fun g -> Json.Str (Gate.to_string g)) (Circuit.gates c))
        );
      ]
    else [])

let diag_json (d : Diag.t) =
  Json.Obj
    ([ ("pass", Json.Str d.Diag.pass) ]
    @ (match d.Diag.group with
      | Some g -> [ ("group", Json.Num (Float.of_int g)) ]
      | None -> [])
    @ [
        ("severity", Json.Str (Diag.severity_to_string d.Diag.severity));
        ("message", Json.Str d.Diag.message);
      ])

let finding_json (f : Finding.t) =
  Json.Obj
    [
      ("analysis", Json.Str f.Finding.analysis);
      ("severity", Json.Str (Diag.severity_to_string f.Finding.severity));
      ("message", Json.Str f.Finding.message);
    ]

let cache_json (s : Cache.stats) =
  Json.Obj
    [
      ("hits", Json.Num (Float.of_int s.Cache.hits));
      ("misses", Json.Num (Float.of_int s.Cache.misses));
      ("disk_hits", Json.Num (Float.of_int s.Cache.disk_hits));
      ("disk_errors", Json.Num (Float.of_int s.Cache.disk_errors));
      ("evictions", Json.Num (Float.of_int s.Cache.evictions));
      ("insertions", Json.Num (Float.of_int s.Cache.insertions));
      ("entries", Json.Num (Float.of_int s.Cache.entries));
      ("bytes", Json.Num (Float.of_int s.Cache.bytes));
    ]

let trace_entry_json (e : Pass.trace_entry) =
  Json.Obj
    [
      ("pass", Json.Str e.Pass.pass);
      ("seconds", Json.Num e.Pass.seconds);
      ("two_q_after", Json.Num (Float.of_int e.Pass.after.Pass.two_q));
      ("gates_after", Json.Num (Float.of_int e.Pass.after.Pass.gates));
    ]

let report_json (r : Compiler.report) =
  Json.Obj
    [
      ("two_q", Json.Num (Float.of_int r.Compiler.two_q_count));
      ("one_q", Json.Num (Float.of_int r.Compiler.one_q_count));
      ("depth_2q", Json.Num (Float.of_int r.Compiler.depth_2q));
      ("swaps", Json.Num (Float.of_int r.Compiler.num_swaps));
      ("logical_two_q", Json.Num (Float.of_int r.Compiler.logical_two_q));
      ("groups", Json.Num (Float.of_int r.Compiler.num_groups));
      ("wall_s", Json.Num r.Compiler.wall_time);
      ("trace", Json.Arr (List.map trace_entry_json r.Compiler.trace));
      ( "diagnostics",
        Json.Arr (List.map diag_json r.Compiler.diagnostics) );
      ("cache", cache_json r.Compiler.cache_stats);
      ( "degradations",
        Json.Arr
          (List.map
             (fun e -> Json.Str (Resilience.event_to_string e))
             r.Compiler.degradations) );
    ]

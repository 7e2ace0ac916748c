module Compiler = Phoenix.Compiler
module Template = Phoenix.Template
module Pass = Phoenix.Pass
module Hamiltonian = Phoenix_ham.Hamiltonian
module Circuit = Phoenix_circuit.Circuit
module Topology = Phoenix_topology.Topology
module Budget = Phoenix_util.Budget
module Cache = Phoenix_cache.Cache
module Diag = Phoenix_verify.Diag
module Structural = Phoenix_verify.Structural
module Finding = Phoenix_analysis.Finding
module Circuit_lint = Phoenix_analysis.Circuit_lint
module Analyses = Phoenix_analysis.Registry
module Resilience_lint = Phoenix_analysis.Resilience_lint
module Certify = Phoenix_tv.Certify

type mode = Plain | Template | Stream of int
type binds = Vectors of float array list | Assignments of string

type request = {
  pipeline : string;
  topology : string;
  isa : Compiler.isa;
  exact : bool;
  verify : bool;
  lint : bool;
  certify : bool;
  cache : Cache.tier;
  budget : Budget.t;
  domains : int;
  mode : mode;
  binds : binds option;
}

let default =
  {
    pipeline = "phoenix";
    topology = "all-to-all";
    isa = Compiler.Cnot_isa;
    exact = false;
    verify = false;
    lint = false;
    certify = false;
    cache = Cache.Mem;
    budget = Budget.none;
    domains = Compiler.default_options.Compiler.domains;
    mode = Plain;
    binds = None;
  }

type status = Clean | Verify_errors | Lint_errors

let exit_code = function Clean -> 0 | Verify_errors -> 3 | Lint_errors -> 4

let status ?(proved = true) diagnostics findings =
  if Diag.has_errors diagnostics then Verify_errors
  else if Finding.has_errors findings || not proved then Lint_errors
  else Clean

type outcome = {
  request : request;
  hamiltonian : Hamiltonian.t;
  entry : Registry.entry;
  topology : Topology.t option;
  options : Compiler.options;
  report : Compiler.report;
  template : Template.t option;
  stream : Compiler.stream_report option;
  circuits : Circuit.t list;
  bind_trace : Pass.trace;
  diagnostics : Diag.t list;
  findings : Finding.t list;
  pass_findings : (string * Finding.t) list;
  certificate : Certify.boundary list;
  status : status;
}

type failure = Deadline of string | Failed of string

let failure = function
  | Pass.Interrupted { pass; reason = Budget.Deadline } ->
    Some (Deadline (Printf.sprintf "deadline exceeded in pass %s with no fallback" pass))
  | Pass.Interrupted { pass; reason = Budget.Cancelled } ->
    Some (Failed (Printf.sprintf "job cancelled in pass %s" pass))
  | Budget.Interrupted Budget.Deadline -> Some (Deadline "deadline exceeded with no fallback")
  | Budget.Interrupted Budget.Cancelled -> Some (Failed "job cancelled")
  | Pass.Failed { pass; error } ->
    Some (Failed (Printf.sprintf "pass %s failed closed: %s" pass error))
  | _ -> None

(* --- admission ----------------------------------------------------------- *)

let topology n = function
  | "all-to-all" -> Ok None
  | "heavy-hex" -> Ok (Some (Topology.ibm_manhattan ()))
  | "line" -> Ok (Some (Topology.line (max n 2)))
  | "ring" -> Ok (Some (Topology.ring (max n 3)))
  | "grid" ->
    let side = int_of_float (ceil (sqrt (float_of_int n))) in
    Ok (Some (Topology.grid ~rows:side ~cols:side))
  | s ->
    Error
      (Printf.sprintf
         "unknown topology %S (all-to-all, heavy-hex, line, ring, grid)" s)

let entry name =
  match Registry.find name with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown pipeline %S (%s)" name
         (String.concat ", " (Registry.names ())))

let admit (req : request) h =
  let ( let* ) = Result.bind in
  let* topo = topology (Hamiltonian.num_qubits h) req.topology in
  let* entry = entry req.pipeline in
  let reject fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match req.mode with
  | (Plain | Stream _) when req.binds <> None ->
    reject "parameter bindings need a template compile"
  | Stream _ when topo <> None ->
    reject
      "streaming is a logical-target mode (chunks route independently); \
       drop the topology and route the concatenated circuit separately"
  | Stream steps when steps < 1 ->
    reject "streaming needs a positive number of Trotter steps"
  | _ when entry.Registry.requires_topology && topo = None ->
    reject "the %s pipeline needs a topology" entry.Registry.name
  | _ when entry.Registry.two_local_only && Hamiltonian.max_weight h > 2 ->
    reject "the %s pipeline only handles 2-local workloads"
      entry.Registry.name
  | _ -> Ok (entry, topo)

(* [NAME=VALUE,...] over the template's parameters; [*=VALUE] binds
   every parameter.  Every parameter must end up bound. *)
let parse_assignments ~(params : string array) spec =
  let ( let* ) = Result.bind in
  let n = Array.length params in
  let values = Array.make n 0.0 and set = Array.make n false in
  let assign acc pair =
    let* () = acc in
    match String.index_opt pair '=' with
    | _ when pair = "" -> Ok ()
    | None -> Error (Printf.sprintf "malformed binding %S (expected NAME=VALUE)" pair)
    | Some i -> (
      let name = String.sub pair 0 i in
      let raw = String.sub pair (i + 1) (String.length pair - i - 1) in
      match (float_of_string_opt raw, Array.find_index (String.equal name) params) with
      | None, _ -> Error (Printf.sprintf "non-numeric value %S for parameter %S" raw name)
      | Some v, _ when name = "*" ->
        Array.fill values 0 n v;
        Array.fill set 0 n true;
        Ok ()
      | Some v, Some k ->
        values.(k) <- v;
        set.(k) <- true;
        Ok ()
      | Some _, None ->
        Error
          (Printf.sprintf "unknown template parameter %S (the template binds %s)"
             name
             (if n = 0 then "no parameters"
              else if n = 1 then params.(0)
              else Printf.sprintf "%s .. %s" params.(0) params.(n - 1))))
  in
  let* () = List.fold_left assign (Ok ()) (String.split_on_char ',' spec) in
  match Array.find_index not set with
  | Some k ->
    Error
      (Printf.sprintf
         "parameter %s is unbound — its slot angles would stay symbolic (bind \
          it explicitly or use '*=VALUE')"
         params.(k))
  | None -> Ok values

(* --- checking ------------------------------------------------------------ *)

let lint_isa = function
  | Compiler.Cnot_isa -> Structural.Cnot_basis
  | Compiler.Su4_isa -> Structural.Su4_basis

let lint_target o circuit =
  let program =
    (* Template circuits carry (or were bound from) parametric angles, so
       translation validation against the concrete program does not
       apply to them. *)
    if o.template <> None then None
    else
      let n = Hamiltonian.num_qubits o.hamiltonian in
      let step = (Registry.chunk o.entry o.options o.hamiltonian).Compiler.chunk_gadgets in
      match o.request.mode with
      | Stream steps -> Some (n, List.concat (List.init steps (fun _ -> step)))
      | Plain | Template -> Some (n, step)
  in
  Circuit_lint.target ~isa:(lint_isa o.request.isa) ?topology:o.topology
    ~declared:
      {
        Circuit_lint.two_q = o.report.Compiler.two_q_count;
        depth_2q = o.report.Compiler.depth_2q;
        one_q = o.report.Compiler.one_q_count;
      }
    ?program ~exact:o.request.exact ?layout:o.report.Compiler.layout circuit

(* Structural re-validation of a bound template circuit ([info] records
   a clean pass, as the template compile itself verified nothing) or of
   a tampered one. *)
let structural ~info o circuit =
  match Structural.validate ~isa:(lint_isa o.request.isa) ?topology:o.topology circuit with
  | [] when info ->
    [
      Diag.make ~pass:"structural" Diag.Info
        (if o.topology = None then "ISA alphabet, qubit range verified"
         else "ISA alphabet, qubit range and coupling-graph compliance verified");
    ]
  | violations -> violations

let check ~tampered ~hook_diags o =
  let report = o.report in
  let diagnostics =
    if not o.request.verify then []
    else
      report.Compiler.diagnostics @ hook_diags
      @
      (* the pipeline's own verify pass checked the untampered circuit *)
      if o.template = None && not tampered then []
      else List.concat_map (structural ~info:(o.template <> None) o) o.circuits
  in
  let findings =
    if not o.request.lint then []
    else
      (* an unbound template lints its slotted prototype *)
      let linted =
        match (o.template, o.circuits) with
        | Some t, [] -> [ Template.circuit t ]
        | _ -> o.circuits
      in
      List.concat_map (fun c -> Analyses.run (lint_target o c)) linted
      @ Resilience_lint.conformance report
  in
  let proved = (not o.request.certify) || Certify.all_proved o.certificate in
  {
    o with
    diagnostics;
    findings;
    status = status ~proved diagnostics (findings @ List.map snd o.pass_findings);
  }

(* --- running a job ------------------------------------------------------- *)

let run ?tamper ?emit ?(keep_circuit = false) (req : request) h =
  let ( let* ) = Result.bind in
  let* entry, topo = admit req h in
  let options =
    {
      Compiler.default_options with
      isa = req.isa;
      exact = req.exact;
      verify = req.verify;
      cache = req.cache;
      budget = req.budget;
      domains = req.domains;
      target =
        (match topo with None -> Compiler.Logical | Some t -> Compiler.Hardware t);
    }
  in
  let pass_findings = ref [] and hook_diags = ref [] and cert = ref [] in
  (* Boundary lint and propagation validation would read slot angles on
     template compiles; the symbolic certifier is sound on both. *)
  let concrete = req.mode <> Template in
  let hooks =
    (if req.lint && concrete then [ Hooks.lint pass_findings ] else [])
    @ (if req.verify && concrete then [ Hooks.translation_validate hook_diags ]
       else [])
    @ if req.certify then [ Certify.hook cert ] else []
  in
  let tampered = tamper <> None in
  let compiled report ?template ?stream ?(bind_trace = []) circuits =
    check ~tampered ~hook_diags:(List.rev !hook_diags)
      {
        request = req;
        hamiltonian = h;
        entry;
        topology = topo;
        options;
        report;
        template;
        stream;
        circuits = List.map (Option.value tamper ~default:Fun.id) circuits;
        bind_trace;
        diagnostics = [];
        findings = [];
        pass_findings = List.rev !pass_findings;
        certificate = Certify.boundaries cert;
        status = Clean;
      }
  in
  match req.mode with
  | Plain ->
    let report = Registry.compile ~options ~protect:true ~hooks entry h in
    Ok (compiled report [ report.Compiler.circuit ])
  | Stream steps ->
    let sr =
      Registry.compile_stream ~options ~protect:true ~hooks
        ~keep_circuit:(keep_circuit || req.verify || req.lint || tampered)
        ?emit ~steps entry h
    in
    let report = sr.Compiler.s_report in
    Ok (compiled report ~stream:sr [ report.Compiler.circuit ])
  | Template ->
    let* t =
      Registry.compile_template ~options ~protect:true ~hooks
        ~certified:req.certify entry h
    in
    let* circuits, bind_trace =
      match req.binds with
      | None -> Ok ([], [])
      | Some (Assignments spec) ->
        let* theta = parse_assignments ~params:(Template.params t) spec in
        let c, trace = Template.bind_with_trace t theta in
        Ok ([ c ], trace)
      | Some (Vectors thetas) -> (
        match Template.bind_batch t thetas with
        | cs -> Ok (cs, [])
        | exception Invalid_argument m -> Error m)
    in
    Ok (compiled (Template.report t) ~template:t ~bind_trace circuits)

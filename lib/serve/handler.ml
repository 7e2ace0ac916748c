module Pass = Phoenix.Pass
module Template = Phoenix.Template
module Budget = Phoenix_util.Budget
module Circuit = Phoenix_circuit.Circuit
module Qasm = Phoenix_circuit.Qasm
module Peephole = Phoenix_circuit.Peephole
module Structural = Phoenix_verify.Structural
module Circuit_lint = Phoenix_analysis.Circuit_lint
module Analyses = Phoenix_analysis.Registry
module Job = Phoenix_pipeline.Job
open Protocol

type outcome = {
  status : Protocol.status;
  fields : (string * Json.t) list;
  error : string option;
  trace : Pass.trace;
}

let fail ?(trace = []) status msg =
  { status; fields = []; error = Some msg; trace }

let bad_request msg = fail Sbad_request msg

let protocol_status = function
  | Job.Clean -> Sok
  | Job.Verify_errors -> Sverify_errors
  | Job.Lint_errors -> Slint_errors

let budget_of_spec ~default_timeout_s spec =
  match (spec.budget_checks, spec.timeout_s, default_timeout_s) with
  | Some k, _, _ -> Budget.after_checks k
  | None, Some s, _ | None, None, Some s -> Budget.of_timeout_s s
  | None, None, None -> Budget.none

let metrics_json c =
  Json.Obj
    [
      ("two_q", Json.Num (Float.of_int (Circuit.count_2q c)));
      ("one_q", Json.Num (Float.of_int (Circuit.count_1q c)));
      ("depth_2q", Json.Num (Float.of_int (Circuit.depth_2q c)));
      ("depth", Json.Num (Float.of_int (Circuit.depth c)));
    ]

(* --- qasm jobs: parse, peephole, re-validate ---------------------------- *)

let execute_qasm spec text =
  match Qasm.of_string text with
  | exception Invalid_argument msg -> bad_request msg
  | parsed ->
    let circuit = Peephole.optimize parsed in
    let diagnostics =
      if spec.verify then
        (* imports are restricted to the CNOT alphabet by construction *)
        Structural.validate ~isa:Structural.Cnot_basis circuit
      else []
    in
    let findings =
      if spec.lint then
        Analyses.run (Circuit_lint.target ~isa:Circuit_lint.Cnot_basis circuit)
      else []
    in
    {
      status = protocol_status (Job.status diagnostics findings);
      fields =
        [
          ("kind", Json.Str "qasm");
          ("circuit", circuit_json ~dump:spec.dump circuit);
          ("metrics", metrics_json circuit);
          ("diagnostics", Json.Arr (List.map diag_json diagnostics));
          ("findings", Json.Arr (List.map finding_json findings));
        ];
      error = None;
      trace = [];
    }

(* --- hamiltonian jobs: the NDJSON codec over [Job] ------------------------ *)

let job_request ~default_timeout_s spec =
  {
    Job.pipeline = spec.pipeline;
    topology = spec.topology;
    isa = spec.isa;
    exact = spec.exact;
    verify = spec.verify;
    lint = spec.lint;
    certify = false;
    cache = spec.cache;
    budget = budget_of_spec ~default_timeout_s spec;
    domains = spec.domains;
    mode = (if spec.template then Job.Template else Job.Plain);
    binds = (if spec.binds = [] then None else Some (Job.Vectors spec.binds));
  }

let checks_json (o : Job.outcome) =
  [
    ("diagnostics", Json.Arr (List.map diag_json o.Job.diagnostics));
    ( "findings",
      Json.Arr
        (List.map finding_json (o.Job.findings @ List.map snd o.Job.pass_findings))
    );
  ]

let execute_hamiltonian ~default_timeout_s spec h =
  match Job.run (job_request ~default_timeout_s spec) h with
  | Error msg -> bad_request msg
  | Ok o ->
    let report = o.Job.report in
    let circuit_json = circuit_json ~dump:spec.dump in
    let fields =
      match o.Job.template with
      | None ->
        [
          ("kind", Json.Str "compile");
          ("pipeline", Json.Str o.Job.entry.Phoenix_pipeline.Registry.name);
          ("circuit", circuit_json (List.hd o.Job.circuits));
          ("report", report_json report);
        ]
        @ checks_json o
      | Some t ->
        [
          ("kind", Json.Str "template");
          ( "params",
            Json.Arr
              (Array.to_list (Array.map (fun p -> Json.Str p) (Template.params t)))
          );
          ("slots", Json.Num (Float.of_int (Template.slot_count t)));
          ("report", report_json report);
          ("binds", Json.Arr (List.map circuit_json o.Job.circuits));
        ]
        (* without checks, the template response keeps its original shape *)
        @ if spec.verify || spec.lint then checks_json o else []
    in
    {
      status = protocol_status o.Job.status;
      fields;
      error = None;
      trace = report.Phoenix.Compiler.trace;
    }

let execute ?default_timeout_s spec =
  let hamiltonian = function
    | Error msg -> bad_request msg
    | Ok h -> execute_hamiltonian ~default_timeout_s spec h
  in
  (* Fail closed at the job boundary: a worker must outlive any job,
     including chaos-injected faults raised outside a protected pass. *)
  match
    match spec.source with
    | Qasm text -> execute_qasm spec text
    | Builtin name -> hamiltonian (Workload.of_spec name)
    | Inline text -> hamiltonian (Workload.of_inline text)
  with
  | outcome -> outcome
  | exception exn -> (
    match Job.failure exn with
    | Some (Job.Deadline msg) -> fail Sdeadline msg
    | Some (Job.Failed msg) -> fail Sfailed msg
    | None -> fail Sfailed ("worker fault: " ^ Printexc.to_string exn))

let response ~id { status; fields; error; trace = _ } =
  ok_response ~id ~status ?error fields

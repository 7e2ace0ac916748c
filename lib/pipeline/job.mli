(** One compile job, from a resolved Hamiltonian plus request settings
    to a checked outcome with a status — the one request→outcome path
    shared by the CLI ([phoenix compile], [analyze], [certify],
    [cache warm]) and the serve daemon's handler.

    A job is admitted (topology grammar, pipeline lookup and the
    mode/pipeline/workload rules), compiled through {!Registry} with the
    lint, translation-validation and certify hooks its settings ask for,
    then checked: structural re-validation, the static analyzer over the
    final circuits, and the status precedence — verification errors
    (exit/status 3) before lint errors or a non-proved certificate (4). *)

type mode =
  | Plain  (** one whole-program compile *)
  | Template  (** a parametric template compile (phoenix only) *)
  | Stream of int  (** that many Trotter-step chunks, logical targets only *)

type binds =
  | Vectors of float array list  (** parameter vectors, in binding order *)
  | Assignments of string
      (** one [NAME=VALUE,...] binding over the template's [theta<k>]
          parameters; [*=VALUE] binds every parameter *)

type request = {
  pipeline : string;  (** registry name, see {!Registry.find} *)
  topology : string;  (** all-to-all, heavy-hex, line, ring or grid *)
  isa : Phoenix.Compiler.isa;
  exact : bool;
  verify : bool;  (** translation-validate; errors give {!Verify_errors} *)
  lint : bool;  (** static analysis; errors give {!Lint_errors} *)
  certify : bool;  (** symbolic certification; non-proved gives {!Lint_errors} *)
  cache : Phoenix_cache.Cache.tier;
  budget : Phoenix_util.Budget.t;
  domains : int;  (** synthesis domains, [0] for automatic *)
  mode : mode;
  binds : binds option;  (** template mode only *)
}

val default : request
(** phoenix, all-to-all, CNOT ISA, no checks, [Mem] cache, no budget,
    automatic domains, [Plain], no binds. *)

type status = Clean | Verify_errors | Lint_errors

val exit_code : status -> int
(** 0, 3 and 4: the CLI exit code and the serve response status. *)

val status :
  ?proved:bool -> Phoenix_verify.Diag.t list -> Phoenix_analysis.Finding.t list -> status
(** The status precedence over already-filtered checks (empty lists for
    checks that were not requested): error diagnostics first, then
    error findings or [proved = false] (default [true]). *)

(** How a job that raised failed closed: a budget deadline with no
    fallback rung (exit/status 5), or a cancellation or pass failure
    (1).  The message names the pass. *)
type failure = Deadline of string | Failed of string

val failure : exn -> failure option
(** The failure an exception escaping {!run} stands for
    ({!Phoenix.Pass.Interrupted}, {!Phoenix_util.Budget.Interrupted},
    {!Phoenix.Pass.Failed}); [None] for any other exception. *)

type outcome = {
  request : request;
  hamiltonian : Phoenix_ham.Hamiltonian.t;
  entry : Registry.entry;
  topology : Phoenix_topology.Topology.t option;
  options : Phoenix.Compiler.options;  (** what the pipeline ran with *)
  report : Phoenix.Compiler.report;
      (** the compile's report: the template compile's for [Template],
          the stream aggregate for [Stream] *)
  template : Phoenix.Template.t option;  (** [Template] mode *)
  stream : Phoenix.Compiler.stream_report option;  (** [Stream] mode *)
  circuits : Phoenix_circuit.Circuit.t list;
      (** the checked circuits, after [tamper]: the compiled circuit, or
          one bound circuit per bind vector ([[]] for an unbound
          template, whose slotted prototype is linted instead) *)
  bind_trace : Phoenix.Pass.trace;  (** the ["bind"] entry of an [Assignments] bind *)
  diagnostics : Phoenix_verify.Diag.t list;  (** with [verify] *)
  findings : Phoenix_analysis.Finding.t list;
      (** with [lint]: final-circuit analyses plus resilience conformance *)
  pass_findings : (string * Phoenix_analysis.Finding.t) list;
      (** with [lint]: boundary findings tagged with the pass before them *)
  certificate : Phoenix_tv.Certify.boundary list;  (** with [certify] *)
  status : status;
}

val entry : string -> (Registry.entry, string) result
(** {!Registry.find}, with the error message listing the registry. *)

val run :
  ?tamper:(Phoenix_circuit.Circuit.t -> Phoenix_circuit.Circuit.t) ->
  ?emit:(Phoenix_circuit.Circuit.t -> unit) ->
  ?keep_circuit:bool ->
  request ->
  Phoenix_ham.Hamiltonian.t ->
  (outcome, string) result
(** Admit, compile and check one job.  [Error msg] is a rejected request
    (exit/status 2) — unknown pipeline or topology, a pipeline needing a
    topology or a 2-local workload, streaming on hardware or with fewer
    than one step, a template on a baseline, binds outside template mode,
    malformed or mismatched binds.  Only a bind error comes after a
    compile (the template's); every other rejection runs no pass.

    [tamper] (a testing hook) replaces each compiled or bound circuit
    before it is checked, and makes verification re-validate it
    structurally.  [emit] and [keep_circuit] (default [false]: keep it
    only when a check needs it) apply to [Stream] mode, as in
    {!Registry.compile_stream}.  Pass failures and budget expiry
    propagate as {!Phoenix.Pass.Failed} / {!Phoenix.Pass.Interrupted}. *)

val lint_target :
  outcome -> Phoenix_circuit.Circuit.t -> Phoenix_analysis.Circuit_lint.target
(** The analyzer target [lint] checks a circuit of this outcome against:
    ISA, topology, declared metrics, layout, and — outside template mode —
    the gadget program compiled (repeated per step when streaming) for
    translation validation. *)

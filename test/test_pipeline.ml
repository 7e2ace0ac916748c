(* The pipeline registry: golden-output regressions pinning the PHOENIX
   pipeline bit-for-bit to the pre-refactor compiler on the paper's
   UCCSD and QAOA presets, baseline digests through the same registry,
   the telescoping invariant of per-pass traces (deterministic over
   every registered pipeline plus a qcheck property over random gadget
   programs), and the pass-boundary hooks. *)

module Gate = Helpers.Gate
module Circuit = Helpers.Circuit
module Compiler = Phoenix.Compiler
module Pass = Phoenix.Pass
module Registry = Phoenix_pipeline.Registry
module Hooks = Phoenix_pipeline.Hooks
module Job = Phoenix_pipeline.Job
module Finding = Phoenix_analysis.Finding
module Diag = Phoenix_verify.Diag
module Topology = Phoenix_topology.Topology

let digest c =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map Gate.to_string (Circuit.gates c))))

let uccsd =
  lazy
    (let b = Phoenix_ham.Molecules.find "LiH_frz_JW" in
     Phoenix_ham.Uccsd.ansatz b.Phoenix_ham.Molecules.encoding
       b.Phoenix_ham.Molecules.spec)

let qaoa =
  lazy
    (Phoenix_ham.Qaoa.maxcut_cost
       (List.assoc "Reg3-16" (Phoenix_ham.Qaoa.benchmark_suite ())))

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "pipeline %S not registered" name

let opts ?(exact = false) ?(verify = false) ?(peephole = true) ?target ?isa ()
    =
  {
    Compiler.default_options with
    exact;
    verify;
    peephole;
    target = Option.value ~default:Compiler.Logical target;
    isa = Option.value ~default:Compiler.Cnot_isa isa;
  }

(* --- golden outputs: PHOENIX is bit-identical across the refactor ---- *)

let check_report name ~md5 ~two_q ~depth_2q ~one_q ~swaps ~logical_two_q
    (r : Compiler.report) =
  Alcotest.(check string) (name ^ " digest") md5 (digest r.Compiler.circuit);
  Alcotest.(check int) (name ^ " two_q") two_q r.Compiler.two_q_count;
  Alcotest.(check int) (name ^ " depth_2q") depth_2q r.Compiler.depth_2q;
  Alcotest.(check int) (name ^ " one_q") one_q r.Compiler.one_q_count;
  Alcotest.(check int) (name ^ " swaps") swaps r.Compiler.num_swaps;
  Alcotest.(check int)
    (name ^ " logical_two_q")
    logical_two_q r.Compiler.logical_two_q

let test_phoenix_golden_uccsd () =
  let h = Lazy.force uccsd in
  let phoenix = entry "phoenix" in
  let hh = Topology.ibm_manhattan () in
  let go options = Registry.compile ~options phoenix h in
  check_report "default" ~md5:"7d48fb3580566670e9c516844bd872e9" ~two_q:336
    ~depth_2q:318 ~one_q:932 ~swaps:0 ~logical_two_q:336
    (go (opts ()));
  check_report "exact" ~md5:"2653091b6f8d67a9652b7659c13a114e" ~two_q:366
    ~depth_2q:350 ~one_q:970 ~swaps:0 ~logical_two_q:366
    (go (opts ~exact:true ()));
  check_report "su4" ~md5:"a0d4a70295c4d7776227f594e5510949" ~two_q:339
    ~depth_2q:305 ~one_q:0 ~swaps:0 ~logical_two_q:339
    (go (opts ~isa:Compiler.Su4_isa ()));
  check_report "heavyhex" ~md5:"57a7a78f231e6e15db126a62da89880c" ~two_q:1159
    ~depth_2q:937 ~one_q:1060 ~swaps:283 ~logical_two_q:332
    (go (opts ~target:(Compiler.Hardware hh) ()));
  (* verification is pure observation: same bits as the default run *)
  check_report "verify" ~md5:"7d48fb3580566670e9c516844bd872e9" ~two_q:336
    ~depth_2q:318 ~one_q:932 ~swaps:0 ~logical_two_q:336
    (go (opts ~verify:true ()))

let test_phoenix_golden_qaoa () =
  let h = Lazy.force qaoa in
  let phoenix = entry "phoenix" in
  let hh = Topology.ibm_manhattan () in
  let go options = Registry.compile ~options phoenix h in
  check_report "default" ~md5:"af92c9b8ba1d6b29d8f558db7be67665" ~two_q:48
    ~depth_2q:22 ~one_q:24 ~swaps:0 ~logical_two_q:48
    (go (opts ()));
  check_report "exact" ~md5:"982c5d8dc8498f6d666ef2224fab3035" ~two_q:48
    ~depth_2q:14 ~one_q:24 ~swaps:0 ~logical_two_q:48
    (go (opts ~exact:true ()));
  check_report "heavyhex" ~md5:"8c595a2b87bb915b30abf42915a52533" ~two_q:115
    ~depth_2q:35 ~one_q:24 ~swaps:23 ~logical_two_q:48
    (go (opts ~target:(Compiler.Hardware hh) ()))

(* Pools much larger than the ordering window: 150 QAOA edge blocks, and
   the routing-aware path on a Fermi-Hubbard lattice. *)
let test_phoenix_golden_large_pool () =
  let phoenix = entry "phoenix" in
  let reg3_100 =
    Phoenix_ham.Qaoa.maxcut_cost
      (List.assoc "Reg3-100" (Phoenix_ham.Qaoa.scaling_suite ()))
  in
  let go options h = Registry.compile ~options phoenix h in
  check_report "Reg3-100 default" ~md5:"026d81dcd7c2cee34882978d206f4145"
    ~two_q:300 ~depth_2q:30 ~one_q:150 ~swaps:0 ~logical_two_q:300
    (go (opts ()) reg3_100);
  check_report "Reg3-100 exact" ~md5:"169488201082e5b39cbe32199be27be3"
    ~two_q:300 ~depth_2q:22 ~one_q:150 ~swaps:0 ~logical_two_q:300
    (go (opts ~exact:true ()) reg3_100);
  check_report "fermi-hubbard 3x3 heavyhex"
    ~md5:"76fcffb85ed03c52eb5dec62960e29f0" ~two_q:908 ~depth_2q:585
    ~one_q:574 ~swaps:218 ~logical_two_q:258
    (go
       (opts ~target:(Compiler.Hardware (Topology.ibm_manhattan ())) ())
       (Phoenix_ham.Fermi_hubbard.lattice ~rows:3 ~cols:3 ()))

(* The baselines, now expressed as registry pipelines, still produce the
   exact circuits their standalone [compile] entry points did. *)
let test_baseline_golden () =
  let uccsd = Lazy.force uccsd and qaoa = Lazy.force qaoa in
  List.iter
    (fun (name, h, md5) ->
      let r = Registry.compile ~options:(opts ()) (entry name) h in
      Alcotest.(check string) name md5 (digest r.Compiler.circuit))
    [
      "naive", uccsd, "74a968258657dbd904795fe03d7ea396";
      "tket", uccsd, "0d1b45dfa30edc3f2baffcbe6230887c";
      "paulihedral", uccsd, "ae99864cbd0b832f4d12285710e8f667";
      "tetris", uccsd, "58257966247b7555aa65cee4b2f9675c";
      "naive", qaoa, "982c5d8dc8498f6d666ef2224fab3035";
      "tket", qaoa, "b840bd6a0326ade58f1ce8bca9b0137b";
      "paulihedral", qaoa, "c281a36cbab77760b6c2eea2041bb5a8";
      "tetris", qaoa, "c281a36cbab77760b6c2eea2041bb5a8";
    ];
  let r =
    Registry.compile ~options:(opts ~peephole:false ()) (entry "tket") uccsd
  in
  Alcotest.(check string) "tket nopeep" "c1baccc1f337536ba6ae9a4d8aea460c"
    (digest r.Compiler.circuit);
  let r =
    Registry.compile
      ~options:(opts ~target:(Compiler.Hardware (Topology.line 16)) ())
      (entry "2qan") qaoa
  in
  Alcotest.(check string) "2qan" "806cb3996ac06008e0c49e4f9f9de1af"
    (digest r.Compiler.circuit);
  Alcotest.(check int) "2qan swaps" 59 r.Compiler.num_swaps

(* --- the telescoping invariant of traces ----------------------------- *)

let metrics_list (m : Pass.metrics) =
  [ m.Pass.gates; m.Pass.one_q; m.Pass.two_q; m.Pass.depth_2q ]

let delta_sum trace =
  List.fold_left
    (fun acc e -> Pass.metrics_add acc (Pass.entry_delta e))
    Pass.metrics_zero trace

let telescopes (r : Compiler.report) =
  delta_sum r.Compiler.trace = Pass.metrics_of r.Compiler.circuit

let test_trace_telescopes_all_pipelines () =
  let uccsd = Lazy.force uccsd and qaoa = Lazy.force qaoa in
  let hh = Topology.ibm_manhattan () in
  List.iter
    (fun (name, h, options) ->
      let r = Registry.compile ~options (entry name) h in
      Alcotest.(check bool) (name ^ " trace nonempty") true (r.Compiler.trace <> []);
      Alcotest.(check (list int))
        (name ^ " deltas sum to final metrics")
        (metrics_list (Pass.metrics_of r.Compiler.circuit))
        (metrics_list (delta_sum r.Compiler.trace)))
    [
      "phoenix", uccsd, opts ();
      "phoenix", uccsd, opts ~target:(Compiler.Hardware hh) ();
      "phoenix", uccsd, opts ~isa:Compiler.Su4_isa ();
      "tket", uccsd, opts ();
      "paulihedral", uccsd, opts ~target:(Compiler.Hardware hh) ();
      "tetris", uccsd, opts ~isa:Compiler.Su4_isa ();
      "naive", uccsd, opts ();
      "2qan", qaoa, opts ~target:(Compiler.Hardware (Topology.line 16)) ();
    ]

let prop_trace_telescopes =
  Helpers.qtest ~count:25 "trace telescopes on random gadget programs"
    (Helpers.terms_gen 4 8) (fun terms ->
      List.for_all
        (fun name ->
          telescopes (Registry.compile_gadgets (entry name) 4 terms))
        [ "phoenix"; "tket"; "paulihedral"; "tetris"; "naive" ])

(* Pass timings in the report come straight from the trace. *)
let test_pass_times_match_trace () =
  let r =
    Registry.compile ~options:(opts ()) (entry "phoenix") (Lazy.force qaoa)
  in
  Alcotest.(check (list string))
    "pass_times names = trace order"
    (List.map (fun (e : Pass.trace_entry) -> e.Pass.pass) r.Compiler.trace)
    (List.map fst r.Compiler.pass_times)

(* --- registry surface ------------------------------------------------ *)

let test_registry_names () =
  Alcotest.(check (list string))
    "registry order"
    [ "phoenix"; "tket"; "paulihedral"; "tetris"; "2qan"; "naive" ]
    (Registry.names ())

let test_catalog_covers_all_pipelines () =
  let catalog = Registry.catalog () in
  Alcotest.(check bool) "nonempty" true (catalog <> []);
  List.iter
    (fun (c : Registry.catalog_entry) ->
      Alcotest.(check bool)
        (c.Registry.pass_name ^ " used somewhere")
        true
        (c.Registry.pipelines <> []))
    catalog;
  let used_by name =
    List.exists (fun c -> List.mem name c.Registry.pipelines) catalog
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in catalog") true (used_by name))
    (Registry.names ())

(* --- pass-boundary hooks --------------------------------------------- *)

let test_hooks_clean_on_real_pipelines () =
  let qaoa = Lazy.force qaoa in
  List.iter
    (fun name ->
      let findings = ref [] and diags = ref [] in
      let hooks = [ Hooks.lint findings; Hooks.translation_validate diags ] in
      let r = Registry.compile ~hooks ~options:(opts ()) (entry name) qaoa in
      ignore (r : Compiler.report);
      Alcotest.(check (list string))
        (name ^ " lint clean")
        []
        (List.filter_map
           (fun (pass, f) ->
             if f.Finding.severity = Finding.Error then
               Some (pass ^ ": " ^ Finding.to_string f)
             else None)
           !findings);
      Alcotest.(check (list string))
        (name ^ " translation validates")
        []
        (List.filter_map
           (fun (d : Diag.t) ->
             match d.Diag.severity with
             | Diag.Error -> Some (Diag.to_string d)
             | _ -> None)
           !diags);
      (* the validation hook actually fired *)
      Alcotest.(check bool) (name ^ " hook fired") true (!diags <> []))
    [ "phoenix"; "tket"; "paulihedral"; "tetris"; "naive" ]

(* --- the shared job path ----------------------------------------------- *)

let two_local = Phoenix_ham.Hamiltonian.of_lines [ "0.5 XXII"; "0.3 IZZI"; "0.2 IIYY" ]

(* Every admission rule rejects with status 2 before compiling: a
   compile would reach [tamper] (or [emit] when streaming). *)
let test_job_admission () =
  let never _ = Alcotest.fail "a rejected request compiled" in
  let weight3 = Phoenix_ham.Hamiltonian.of_lines [ "0.5 XYZI"; "0.3 IIZZ" ] in
  List.iter
    (fun (name, request, h) ->
      match Job.run ~tamper:never ~emit:never request h with
      | Ok _ -> Alcotest.failf "%s: admitted" name
      | Error msg ->
        Alcotest.(check bool) (name ^ " explains itself") true (msg <> ""))
    [
      ("unknown pipeline", { Job.default with pipeline = "nope" }, two_local);
      ("unknown topology", { Job.default with topology = "moebius" }, two_local);
      ("2qan without topology", { Job.default with pipeline = "2qan" }, two_local);
      ( "2qan on a 3-local workload",
        { Job.default with pipeline = "2qan"; topology = "line" },
        weight3 );
      ( "stream with a topology",
        { Job.default with mode = Job.Stream 2; topology = "line" },
        two_local );
      ("stream of 0 steps", { Job.default with mode = Job.Stream 0 }, two_local);
      ( "template on tket",
        { Job.default with pipeline = "tket"; mode = Job.Template },
        two_local );
      ( "bind without template",
        { Job.default with binds = Some (Job.Vectors [ [| 0.5 |] ]) },
        two_local );
    ]

(* An out-of-ISA gate is both a structural (verify) and an ISA-conformance
   (lint) error: verification wins, 3 before 4. *)
let test_job_status_precedence () =
  let out_of_isa c =
    Circuit.append c
      (Gate.Rpp { p0 = Phoenix_pauli.Pauli.X; p1 = Phoenix_pauli.Pauli.Z; a = 0; b = 1; theta = 0.7 })
  in
  let status request =
    match Job.run ~tamper:out_of_isa request two_local with
    | Ok o -> Job.exit_code o.Job.status
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "clean" 0
    (match Job.run { Job.default with verify = true; lint = true } two_local with
    | Ok o -> Job.exit_code o.Job.status
    | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "lint alone" 4 (status { Job.default with lint = true });
  Alcotest.(check int) "verify alone" 3 (status { Job.default with verify = true });
  Alcotest.(check int) "verify before lint" 3
    (status { Job.default with verify = true; lint = true })

let () =
  Alcotest.run "pipeline"
    [
      ( "golden",
        [
          Alcotest.test_case "phoenix uccsd" `Slow test_phoenix_golden_uccsd;
          Alcotest.test_case "phoenix qaoa" `Quick test_phoenix_golden_qaoa;
          Alcotest.test_case "phoenix large pools" `Quick
            test_phoenix_golden_large_pool;
          Alcotest.test_case "baselines" `Slow test_baseline_golden;
        ] );
      ( "trace",
        [
          Alcotest.test_case "telescopes (all pipelines)" `Slow
            test_trace_telescopes_all_pipelines;
          prop_trace_telescopes;
          Alcotest.test_case "pass_times = trace" `Quick
            test_pass_times_match_trace;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "catalog" `Quick test_catalog_covers_all_pipelines;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "clean on real pipelines" `Quick
            test_hooks_clean_on_real_pipelines;
        ] );
      ( "job",
        [
          Alcotest.test_case "admission rejects with status 2" `Quick
            test_job_admission;
          Alcotest.test_case "verify errors before lint errors" `Quick
            test_job_status_precedence;
        ] );
    ]

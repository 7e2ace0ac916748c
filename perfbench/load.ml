(* The serve-mixed workload: seeded Poisson arrivals, sent on schedule (an
   open loop) to a real [phoenix serve] child process over its NDJSON
   socket.  Latency runs from each request's scheduled send time, so a
   stall also charges the wait it imposes on later requests. *)

module Json = Phoenix_serve.Json
module Protocol = Phoenix_serve.Protocol
module Handler = Phoenix_serve.Handler
module Serve = Phoenix_serve.Serve
module R = Phoenix_pipeline.Registry
module C = Phoenix.Compiler

let now = Spans.now

(* Offered rates in requests per second and the latency limit for
   goodput, fixed from the measured capacity of a 2-core machine (see
   README.md).  [hi] is the rate the end-to-end metrics report. *)
let rate_lo = 8.0
let rate_hi = 20.0
let limit_ms = 250.0

let workers = Domain.recommended_domain_count ()

(* --- traffic ----------------------------------------------------------- *)

type source = Builtin of string | Inline of string | Qasm of int

type request = {
  id : int;
  due : float;  (** seconds after the phase starts *)
  line : string;  (** the request line, id included *)
  spec_key : string;  (** the line without its id: equal specs compile alike *)
  source : source;
  template : bool;
  verify : bool;
}

(* Repeated builtin compiles: the cross-request cache hit path. *)
let builtins =
  [ "uccsd:LiH_frz_JW"; "uccsd:LiH_frz_BK"; "uccsd:NH_frz_JW"; "fermi-hubbard:2x3";
    "fermi-hubbard:3x3" ]

let template_workload = "uccsd:LiH_frz_JW"
let binds_per_template = 8

(* A unique 12-qubit, 60-term Hamiltonian: the miss-and-insert path. *)
let inline_hamiltonian rng =
  let letter () = "IXYZ".[Random.State.int rng 4] in
  let term () =
    let p = String.init 12 (fun _ -> letter ()) in
    let p = if String.for_all (( = ) 'I') p then "Z" ^ String.sub p 1 11 else p in
    Printf.sprintf "%.6f %s" (Random.State.float rng 2.0 -. 1.0) p
  in
  String.concat "\n" (List.init 60 (fun _ -> term ()))

(* QASM jobs replay circuits this process compiles at set-up, with
   default options.  The first of these compiles is the process's first,
   the one the known first-use race can strike: like the batch warm-up
   it is not an op of the run, and a loss is counted in [lost] and tried
   again. *)
let qasm_pool ~lost =
  let entry = Option.get (R.find "phoenix") in
  let rec compile h tries =
    match R.compile ~protect:true entry h with
    | r -> r.C.circuit
    | exception e ->
      incr lost;
      Printf.eprintf "perfbench: set-up compile failed: %s\n%!" (Printexc.to_string e);
      if tries > 1 then compile h (tries - 1) else raise e
  in
  List.map
    (fun spec ->
      match Phoenix_serve.Workload.of_spec spec with
      | Ok h -> Phoenix_circuit.Qasm.to_string (compile h 3)
      | Error msg -> failwith msg)
    [ "heisenberg:6"; "tfim:8"; "heisenberg:10"; "fermi-hubbard:2x2" ]

let template_params () =
  match Phoenix_serve.Workload.of_spec template_workload with
  | Ok h -> (
    match Phoenix_ham.Hamiltonian.term_blocks h with
    | Some b -> List.length b
    | None -> Phoenix_ham.Hamiltonian.num_terms h)
  | Error msg -> failwith msg

type kind = K_builtin | K_template | K_inline | K_qasm

(* [pick] counts earlier requests of the same kind, so builtin programs
   and QASM texts take equal shares. *)
let request ~rng ~qasm ~params ~id ~due ~kind ~pick ~verify ~dump =
  let source, template, fields =
    match kind with
    | K_builtin ->
      let w = List.nth builtins (pick mod List.length builtins) in
      (Builtin w, false, [ ("workload", Json.Str w) ])
    | K_template ->
      let bind () =
        Json.Arr (List.init params (fun _ -> Json.Num (Random.State.float rng 2.0)))
      in
      ( Builtin template_workload,
        true,
        [
          ("workload", Json.Str template_workload);
          ("template", Json.Bool true);
          ("binds", Json.Arr (List.init binds_per_template (fun _ -> bind ())));
        ] )
    | K_inline ->
      let text = inline_hamiltonian rng in
      (Inline text, false, [ ("hamiltonian", Json.Str text) ])
    | K_qasm ->
      let i = pick mod Array.length qasm in
      (Qasm i, false, [ ("qasm", Json.Str qasm.(i)) ])
  in
  let fields = fields @ [ ("verify", Json.Bool verify); ("dump", Json.Bool dump) ] in
  {
    id;
    due;
    line = Json.to_string (Json.Obj (("id", Json.Num (float_of_int id)) :: fields));
    spec_key = Json.to_string (Json.Obj fields);
    source;
    template;
    verify;
  }

(* [count] values of which the first [share] fraction are [a], the rest
   [b], in a seeded order: exact shares keep the mix equal across seeds. *)
let exact_shares rng count parts =
  let a = Array.make count (snd (List.hd parts)) in
  let i = ref 0 in
  List.iter
    (fun (share, v) ->
      let k = int_of_float (Float.round (share *. float_of_int count)) in
      for _ = 1 to k do
        if !i < count then a.(!i) <- v;
        incr i
      done)
    parts;
  Batch.shuffled rng a

(* The mix follows the daemon soak in test/test_serve.ml ([mixed_specs]),
   which gives each of its specs an equal share.  Its 14 logical-target
   specs are 11 builtin compiles, 1 template compile with binds, 1 inline
   Hamiltonian and 1 QASM job, and 1 of the 14 sets [verify: true].  No
   spec there sets [dump: true]; the dump share of 1/14 is an
   assumption, the smallest share the soak gives any kind of request. *)
let kind_shares =
  [ (11.0 /. 14.0, K_builtin); (1.0 /. 14.0, K_template); (1.0 /. 14.0, K_inline);
    (1.0 /. 14.0, K_qasm) ]

let flag_share = 1.0 /. 14.0

(* Poisson arrivals at [rate] over [seconds], conditioned on their count:
   rate x seconds arrival times drawn uniformly over the phase.  Count
   and shares are exact, so the offered load is equal across seeds. *)
let schedule ~rng ~qasm ~params ~rate ~seconds ~first_id =
  let count = int_of_float (Float.round (rate *. seconds)) in
  let dues = Array.init count (fun _ -> Random.State.float rng seconds) in
  Array.sort Float.compare dues;
  let kinds = exact_shares rng count kind_shares in
  let verify = exact_shares rng count [ (flag_share, true); (1.0 -. flag_share, false) ] in
  let dump = exact_shares rng count [ (flag_share, true); (1.0 -. flag_share, false) ] in
  let seen = Hashtbl.create 4 in
  Array.mapi
    (fun i due ->
      let kind = kinds.(i) in
      let pick = Option.value (Hashtbl.find_opt seen kind) ~default:0 in
      Hashtbl.replace seen kind (pick + 1);
      request ~rng ~qasm ~params ~id:(first_id + i) ~due ~kind ~pick ~verify:verify.(i)
        ~dump:dump.(i))
    dues

(* --- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; addr : Serve.addr; path : string }

let socket_counter = ref 0
let live = ref []

(* Start [phoenix serve --workers nproc] on a socket inside the checkout
   and wait until its first ping is answered. *)
let start_daemon phoenix =
  incr socket_counter;
  let path =
    Filename.concat "perfbench/out"
      (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  if Sys.file_exists path then Sys.remove path;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process phoenix
      [| phoenix; "serve"; "--socket"; path; "--workers"; string_of_int workers |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let addr = Serve.Unix_socket path in
  let deadline = now () +. 60.0 in
  let rec ping () =
    match Serve.Client.connect addr with
    | conn ->
      Serve.Client.send_line conn "{\"op\":\"ping\",\"id\":\"ping\"}";
      let answered = Serve.Client.recv conn <> None in
      Serve.Client.close conn;
      if not answered then retry ()
    | exception Unix.Unix_error _ -> retry ()
  and retry () =
    if now () > deadline then failwith "phoenix serve did not answer a ping";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "phoenix serve exited during start-up");
    Unix.sleepf 0.005;
    ping ()
  in
  let d = { pid; addr; path } in
  live := d :: !live;
  ping ();
  d

(* SIGTERM drains: every accepted job is answered before the daemon exits. *)
let stop_daemon d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    if Sys.file_exists d.path then Sys.remove d.path
  end

(* No daemon outlives the benchmark, even when a run ends in an
   exception. *)
let () = at_exit (fun () -> List.iter stop_daemon !live)

(* --- the open loop ----------------------------------------------------- *)

type response = {
  recv_at : float;
  status : int;
  json : Json.t;
}

type phase = {
  sent_at : float array;  (** absolute monotonic send times *)
  start : float;
  responses : (int, response) Hashtbl.t;
  mutable queue_depth_max : int;
  mutable last_stats : Json.t option;
}

let num_field k j = Option.bind (Json.mem k j) Json.num

let status_of j = Option.value (Option.map int_of_float (num_field "status" j)) ~default:(-1)

(* Send every request at its due time over [workers] connections; a
   receiver thread per connection matches responses by id.  With
   [scrape], a [stats] request rides on connection 0 every 200 ms to
   sample the daemon's queue depth.  While no request is in flight and
   the next is at least 20 ms away, the host-speed reference runs within
   its time share. *)
let run_phase d (requests : request array) ~scrape =
  let conns = Array.init workers (fun _ -> Serve.Client.connect d.addr) in
  let n = Array.length requests in
  let p =
    {
      sent_at = Array.make n 0.0;
      start = now () +. 0.05;
      responses = Hashtbl.create n;
      queue_depth_max = 0;
      last_stats = None;
    }
  in
  let m = Mutex.create () in
  let expected = Array.make workers 0 in
  Array.iteri (fun i _ -> expected.(i mod workers) <- expected.(i mod workers) + 1) requests;
  let scrapes = ref 0 in
  let scrape_done = ref false in
  let receiver k () =
    let got = ref 0 and stats_seen = ref 0 in
    let finished () =
      !got >= expected.(k) && (k <> 0 || not scrape || (!scrape_done && !stats_seen >= !scrapes))
    in
    while not (Mutex.protect m finished) do
      match Serve.Client.recv conns.(k) with
      | None -> failwith "phoenix serve closed a connection"
      | Some j -> (
        let at = now () in
        match Json.mem "id" j with
        | Some (Json.Num id) ->
          Mutex.protect m (fun () ->
              Hashtbl.replace p.responses (int_of_float id)
                { recv_at = at; status = status_of j; json = j });
          incr got
        | _ ->
          (match Json.mem "stats" j with
          | Some s ->
            let depth =
              Option.bind (Json.mem "queue" s) (num_field "depth")
              |> Option.value ~default:0.0
            in
            Mutex.protect m (fun () ->
                p.queue_depth_max <- max p.queue_depth_max (int_of_float depth);
                p.last_stats <- Some s)
          | None -> ());
          Mutex.protect m (fun () -> incr stats_seen))
    done
  in
  let threads = Array.init workers (fun k -> Thread.create (receiver k) ()) in
  let send k line = Mutex.protect m (fun () -> Serve.Client.send_line conns.(k) line) in
  let next_scrape = ref (p.start +. 0.2) in
  Array.iteri
    (fun i r ->
      let due = p.start +. r.due in
      let rec wait () =
        let t = now () in
        if scrape && !next_scrape <= Float.min due t then begin
          Mutex.protect m (fun () -> incr scrapes);
          send 0 (Printf.sprintf "{\"op\":\"stats\",\"id\":\"stats-%d\"}" !scrapes);
          next_scrape := !next_scrape +. 0.2;
          wait ()
        end
        else if
          due -. t > 0.02
          && Mutex.protect m (fun () -> Hashtbl.length p.responses >= i)
          && !Calib.spent < 0.05 *. (t -. p.start)
        then begin
          Calib.sample ();
          wait ()
        end
        else if t < due then begin
          let until = if scrape then Float.min due !next_scrape else due in
          (* wake every 5 ms to see whether the daemon has gone idle *)
          Unix.sleepf (Float.max 0.0 (Float.min 0.005 (until -. t)));
          wait ()
        end
      in
      wait ();
      p.sent_at.(i) <- now ();
      send (i mod workers) r.line)
    requests;
  (* [scrape_done] is set with the last increment, so receiver 0 cannot
     see the last stats answer before it knows no more will come *)
  Mutex.protect m (fun () ->
      if scrape then incr scrapes;
      scrape_done := true);
  if scrape then
    send 0 (Printf.sprintf "{\"op\":\"stats\",\"id\":\"stats-%d\"}" !scrapes);
  Array.iter Thread.join threads;
  Array.iter Serve.Client.close conns;
  p

let latency_ms p (r : request) =
  match Hashtbl.find_opt p.responses r.id with
  | Some resp -> Some ((resp.recv_at -. (p.start +. r.due)) *. 1000.0, resp)
  | None -> None

(* --- output checks ----------------------------------------------------- *)

(* Every circuit digest a response carries, in document order. *)
let rec digests = function
  | Json.Obj fields ->
    List.concat_map
      (fun (k, v) ->
        match (k, v) with "digest", Json.Str s -> [ s ] | _ -> digests v)
      fields
  | Json.Arr xs -> List.concat_map digests xs
  | _ -> []

let serial_execute (r : request) =
  match Protocol.parse_request r.line with
  | Ok (Protocol.Compile { spec; _ }) -> Handler.execute spec
  | _ -> failwith "perfbench: generated an unparseable request"

type quality = { mutable two_q : int; mutable depth_2q : int; seen : (source, unit) Hashtbl.t }

(* Quality totals over the builtin programs and QASM texts, one output
   each: every run sends all of them whatever its seed, so the totals are
   the same for every seed.  The unique inline Hamiltonians and the bound
   templates are left out, because they change with the seed. *)
let add_quality q (r : request) j =
  match r.source with
  | (Builtin _ | Qasm _) when (not r.template) && not (Hashtbl.mem q.seen r.source) -> (
    let m = match Json.mem "report" j with Some rep -> Some rep | None -> Json.mem "metrics" j in
    match m with
    | Some m ->
      Hashtbl.replace q.seen r.source ();
      q.two_q <- q.two_q + int_of_float (Option.value (num_field "two_q" m) ~default:0.0);
      q.depth_2q <- q.depth_2q + int_of_float (Option.value (num_field "depth_2q" m) ~default:0.0)
    | None -> ())
  | _ -> ()

(* Digest-file entries: one per distinct spec, keyed by the spec's hash. *)
let digest_entry (r : request) status ds =
  ( Digest.to_hex (Digest.string r.spec_key),
    Printf.sprintf "%d:%s" status (String.concat "," ds) )

(* Serial reference: every request once more through [Handler.execute],
   in schedule order, on a cache cleared first, as the daemon's shared
   cache met them.  Every status-0 response must carry the digests of its
   serial twin.  The replay runs [replays] times, each on a cleared cache.
   The host-speed reference runs before every fourth request, so the
   replay has speed factors of its own.  Returns the quality totals, the
   digest-file entries, and each request's [replays] start times and CPU
   times in ms. *)
let replays = 3

let check_against_serial p (requests : request array) problem =
  let q = { two_q = 0; depth_2q = 0; seen = Hashtbl.create 16 } in
  let entries = Hashtbl.create 64 in
  let cpu_ms = Array.make_matrix (Array.length requests) replays (0.0, 0.0) in
  for k = 0 to replays - 1 do
    Phoenix_cache.Cache.clear_memory ();
    Array.iteri
      (fun i r ->
        if i mod 4 = 0 then Calib.sample ();
        let start = now () and c0 = Calib.cpu () in
        let o = serial_execute r in
        cpu_ms.(i).(k) <- (start, (Calib.cpu () -. c0) *. 1000.0);
        if k = 0 then begin
          let j = Handler.response ~id:Json.Null o in
          let serial = digests j in
          add_quality q r j;
          let key, value = digest_entry r (Protocol.status_code o.Handler.status) serial in
          Hashtbl.replace entries key value;
          match Hashtbl.find_opt p.responses r.id with
          | Some resp when resp.status = 0 ->
            if o.Handler.status <> Protocol.Sok || digests resp.json <> serial then
              problem
                (Printf.sprintf "request %d: daemon output differs from serial Handler.execute" r.id)
          | _ -> ()
        end)
      requests
  done;
  (q, Hashtbl.fold (fun k v acc -> (k, v) :: acc) entries [], cpu_ms)

(* --- the runs ---------------------------------------------------------- *)

type counts = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  by_status : (string, int) Hashtbl.t;
}

let count_phase c p requests =
  Array.iter
    (fun r ->
      c.attempted <- c.attempted + 1;
      let name =
        match Hashtbl.find_opt p.responses r.id with
        | Some { status = 0; _ } -> None
        | Some { json; status; _ } ->
          Some (Option.value (Option.bind (Json.mem "status_name" json) Json.str)
                  ~default:(string_of_int status))
        | None -> Some "no response"
      in
      match name with
      | None -> ()
      | Some name ->
        c.failed <- c.failed + 1;
        Hashtbl.replace c.by_status name
          (1 + Option.value (Hashtbl.find_opt c.by_status name) ~default:0))
    requests

let report_failures c =
  Hashtbl.iter
    (fun name k -> Printf.eprintf "perfbench: %d request(s) answered %s\n" k name)
    c.by_status

(* Set-up: the reference samples, the traffic, the QASM it replays, a
   daemon answering pings, and a warm-up burst of one request per kind
   sent at once on every connection.  The burst carries the daemon's
   first compiles, which the known first-use race can strike, so like the
   batch warm-up it is not an op of the run: a failed answer is named and
   counted in [lost]. *)
let setup ~phoenix ~seed ~phases =
  Calib.warm_up ();
  let lost = ref 0 in
  let qasm = Array.of_list (qasm_pool ~lost) in
  let params = template_params () in
  (* each phase draws from its own stream, so the [hi] traffic of a seed
     is the same in the untraced and the traced run *)
  let rng rate = Random.State.make [| seed; 29; int_of_float rate |] in
  let phases =
    List.mapi
      (fun k (rate, seconds) ->
        schedule ~rng:(rng rate) ~qasm ~params ~rate ~seconds
          ~first_id:((k + 1) * 1_000_000))
      phases
  in
  let d = start_daemon phoenix in
  let warm =
    schedule ~rng:(rng 0.0) ~qasm ~params ~rate:16.0 ~seconds:1.0 ~first_id:0
    |> Array.map (fun r -> { r with due = 0.0 })
  in
  let p = run_phase d warm ~scrape:false in
  Array.iter
    (fun r ->
      match Hashtbl.find_opt p.responses r.id with
      | Some { status = 0; _ } -> ()
      | Some { json; status; _ } ->
        incr lost;
        Printf.eprintf "perfbench: warm-up request answered %s\n%!"
          (Option.value (Option.bind (Json.mem "message" json) Json.str)
             ~default:(string_of_int status))
      | None -> incr lost)
    warm;
  (d, phases, !lost)

(* The set-up's CPU seconds, this process's and the daemon's, scaled. *)
let setup_cpu d = Calib.scale (Calib.cpu () +. Calib.cpu_of_pid d.pid)

let new_counts () = { attempted = 0; failed = 0; correct = true; by_status = Hashtbl.create 4 }

(* One set-up in a fresh process: its CPU time, read before the daemon
   is stopped, and its warm-up losses. *)
let setup_only ~phoenix ~seed ~seconds =
  let d, _, lost = setup ~phoenix ~seed ~phases:[ (rate_hi, seconds) ] in
  let s = setup_cpu d in
  stop_daemon d;
  (s, lost)

(* Latencies of the status-0 responses of a phase, and how many of them
   came within [limit_ms]. *)
let latencies p requests =
  Array.fold_left
    (fun (ms, good) r ->
      match latency_ms p r with
      | Some (x, { status = 0; _ }) -> (x :: ms, if x <= limit_ms then good + 1 else good)
      | _ -> (ms, good))
    ([], 0) requests

let untraced ~phoenix ~seed ~seconds ~cold_setups ~digest_path ~peak_rss_mb ~print =
  let c = new_counts () in
  let d, phases, lost = setup ~phoenix ~seed ~phases:[ (rate_hi, seconds) ] in
  let setup_s, fresh_lost = cold_setups ~own:(setup_cpu d) in
  let requests = List.hd phases in
  let cpu0 = Calib.cpu_of_pid d.pid in
  let p = run_phase d requests ~scrape:false in
  let daemon_cpu = Calib.cpu_of_pid d.pid -. cpu0 in
  let rss = peak_rss_mb (string_of_int d.pid) in
  stop_daemon d;
  count_phase c p requests;
  report_failures c;
  let problem msg =
    c.correct <- false;
    prerr_endline ("perfbench: " ^ msg)
  in
  let phase_speed = Calib.speed () in
  Calib.report ();
  Calib.restart ();
  let q, entries, timed = check_against_serial p requests problem in
  Batch.check_digest_file ~path:digest_path ~problem entries;
  (* a request's CPU time: the median of its replays, each scaled *)
  let at = Calib.local () in
  let serial_cpu =
    Array.to_list timed
    |> List.map (fun reps ->
           Stats.median (Array.to_list (Array.map (fun (t, x) -> x *. at t) reps)))
  in
  let ok, good = latencies p requests in
  let n = float_of_int (Array.length requests) in
  let v = Hashtbl.create 16 in
  let set k x = Hashtbl.replace v k x in
  set "setup_s" setup_s;
  set "cpu_ms.p50" (Stats.median serial_cpu);
  set "cpu_ms.p90" (Stats.percentile 90.0 serial_cpu);
  set "cpu_ms_per_op" (daemon_cpu *. 1000.0 /. n *. phase_speed);
  set "ok_ratio" (1.0 -. (float_of_int c.failed /. float_of_int c.attempted));
  set "peak_rss_mb" rss;
  set "two_q_total" (float_of_int q.two_q);
  set "depth_2q_total" (float_of_int q.depth_2q);
  Printf.eprintf
    "perfbench: serve-mixed seed %d: %d requests at %.0f/s, %d within %.0f ms; raw latency p50 \
     %.2f ms p90 %.2f ms; daemon CPU %.3f s\n"
    seed (Array.length requests) rate_hi good limit_ms (Stats.median ok)
    (Stats.percentile 90.0 ok) daemon_cpu;
  Batch.report_lost (lost + fresh_lost);
  Calib.report ();
  print ~correct:c.correct ~attempted:c.attempted ~failed:c.failed v

let traced ~phoenix ~seed ~seconds ~layers ~probe ~digest_path ~print =
  let c = new_counts () in
  let d, phases, lost =
    setup ~phoenix ~seed ~phases:[ (rate_lo, seconds /. 2.0); (rate_hi, seconds) ]
  in
  let lost = lost + probe () in
  let lo_requests, hi_requests =
    match phases with [ a; b ] -> (a, b) | _ -> assert false
  in
  let lo = run_phase d lo_requests ~scrape:false in
  let hi = run_phase d hi_requests ~scrape:true in
  stop_daemon d;
  count_phase c lo lo_requests;
  count_phase c hi hi_requests;
  report_failures c;
  let problem msg =
    c.correct <- false;
    prerr_endline ("perfbench: " ^ msg)
  in
  let set k x = Hashtbl.replace layers k x in
  let lo_ms =
    Array.to_list lo_requests
    |> List.filter_map (fun r ->
           match latency_ms lo r with Some (ms, { status = 0; _ }) -> Some ms | _ -> None)
  in
  set "serve.lo.op_ms.p50" (Stats.median lo_ms);
  set "serve.lo.op_ms.p95" (Stats.percentile 95.0 lo_ms);
  let hi_ms, good = latencies hi hi_requests in
  let last = Hashtbl.fold (fun _ r t -> Float.max t r.recv_at) hi.responses hi.start in
  set "serve.hi.op_ms.p50" (Stats.median hi_ms);
  set "serve.hi.op_ms.p90" (Stats.percentile 90.0 hi_ms);
  set "serve.goodput_per_s" (float_of_int good /. (last -. hi.start));
  set "wall.op_ms.p50" (Stats.median hi_ms);
  set "host.speed" (Calib.speed ());
  set "defect.warmup_lost" (float_of_int lost);
  Batch.report_lost lost;
  set "serve.queue_depth.max" (float_of_int hi.queue_depth_max);
  let refused =
    Option.bind hi.last_stats (Json.mem "responses_by_status")
    |> fun o -> Option.bind o (num_field "overloaded")
  in
  set "serve.refused" (Option.value refused ~default:0.0);
  set "loadgen.lag_ms.p99"
    (Stats.percentile 99.0
       (Array.to_list
          (Array.mapi (fun i r -> (hi.sent_at.(i) -. (hi.start +. r.due)) *. 1000.0) hi_requests)));
  (* Serial replay of every hi-rate request in schedule order: its
     execution time, the codec on its request and response, and the
     concurrent = serial check on its digests. *)
  Phoenix_cache.Cache.clear_memory ();
  let exec = ref [] and wait = ref [] and parse = ref [] and print_us = ref [] and kb = ref [] in
  let entries = Hashtbl.create 64 in
  Array.iter
    (fun r ->
      let t0 = now () in
      let parsed = Protocol.parse_request r.line in
      let t1 = now () in
      let o =
        match parsed with
        | Ok (Protocol.Compile { spec; _ }) ->
          Spans.within ~op:r.id "serve.exec" (fun () -> Handler.execute spec)
        | _ -> failwith "perfbench: generated an unparseable request"
      in
      let t2 = now () in
      let text = Json.to_string (Handler.response ~id:(Json.Num (float_of_int r.id)) o) in
      let t3 = now () in
      let serial = digests (Handler.response ~id:Json.Null o) in
      let key, value = digest_entry r (Protocol.status_code o.Handler.status) serial in
      Hashtbl.replace entries key value;
      parse := ((t1 -. t0) *. 1e6) :: !parse;
      exec := ((t2 -. t1) *. 1000.0) :: !exec;
      print_us := ((t3 -. t2) *. 1e6) :: !print_us;
      kb := (float_of_int (String.length text) /. 1024.0) :: !kb;
      match latency_ms hi r with
      | Some (ms, { status = 0; json; _ }) ->
        wait := (ms -. ((t2 -. t1) *. 1000.0)) :: !wait;
        if o.Handler.status <> Protocol.Sok || digests json <> serial then
          problem
            (Printf.sprintf "request %d: daemon output differs from serial Handler.execute" r.id)
      | _ -> ())
    hi_requests;
  Batch.check_digest_file ~path:digest_path ~problem
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) entries []);
  set "serve.exec_ms.p50" (Stats.median !exec);
  set "serve.exec_ms.p95" (Stats.percentile 95.0 !exec);
  set "serve.wait_ms.p50" (Stats.median !wait);
  set "serve.wait_ms.p95" (Stats.percentile 95.0 !wait);
  set "codec.parse_us.p50" (Stats.median !parse);
  set "codec.print_us.p50" (Stats.median !print_us);
  set "codec.response_kb.p50" (Stats.median !kb);
  (* Templates: compile, bind, slot sites. *)
  let entry = Option.get (R.find "phoenix") in
  let h = Result.get_ok (Phoenix_serve.Workload.of_spec template_workload) in
  let compile_ms = ref [] and bind_us = ref [] and sites = ref 0 in
  for _ = 1 to 5 do
    Phoenix_cache.Cache.clear_memory ();
    let t0 = now () in
    match Spans.within ~op:(-1) "template.compile" (fun () -> R.compile_template entry h) with
    | Ok tmpl ->
      compile_ms := ((now () -. t0) *. 1000.0) :: !compile_ms;
      sites := Phoenix.Template.slot_sites tmpl;
      let rng = Random.State.make [| seed; 31 |] in
      for _ = 1 to binds_per_template do
        let v = Array.init (Phoenix.Template.num_parameters tmpl) (fun _ -> Random.State.float rng 2.0) in
        let t0 = now () in
        ignore (Phoenix.Template.bind tmpl v);
        bind_us := ((now () -. t0) *. 1e6) :: !bind_us
      done
    | Error msg -> problem msg
  done;
  set "template.compile_ms" (Stats.median !compile_ms);
  set "template.bind_us.p50" (Stats.median !bind_us);
  set "template.slot_sites" (float_of_int !sites);
  (* Step the distinct builtin compiles and the first unique inline ones
     pass by pass outside the daemon, with the daemon's options. *)
  let t = Batch.tally () in
  let l = Batch.layers () in
  let stepped = Hashtbl.create 16 and inline_left = ref 12 in
  Array.iter
    (fun r ->
      let key = (r.source, r.verify) in
      let wanted =
        (not r.template) && (not (Hashtbl.mem stepped key))
        && match r.source with Builtin _ -> true | Inline _ -> !inline_left > 0 | Qasm _ -> false
      in
      if wanted then begin
        Hashtbl.replace stepped key ();
        (match r.source with Inline _ -> decr inline_left | _ -> ());
        let h =
          match r.source with
          | Builtin s -> Phoenix_serve.Workload.of_spec s
          | Inline text -> Phoenix_serve.Workload.of_inline text
          | Qasm _ -> assert false
        in
        let options = { C.default_options with C.verify = r.verify; C.domains = 1 } in
        let w = { Batch.options; topology = None; inputs = [||] } in
        Batch.traced_op ~op:r.id w t l { Batch.label = r.spec_key; h = Result.get_ok h }
      end)
    hi_requests;
  Batch.report_failures t;
  Layers.fill layers l;
  if not t.Batch.correct then c.correct <- false;
  print ~correct:c.correct ~attempted:(c.attempted + t.Batch.attempted)
    ~failed:(c.failed + t.Batch.failed) layers

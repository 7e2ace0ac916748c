(* In-memory spans recorded from the benchmark's own code around calls
   into the compiler.  Each span has a name, start and end on the
   monotonic clock, the span that encloses it, and the id of the op it
   belongs to.  Nothing is written until [write] at exit, so recording
   costs two clock reads and one allocation per span. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 at the op boundary *)
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
(* Seconds on CLOCK_MONOTONIC, to the nanosecond: per-call replays of
   sub-microsecond functions need more than gettimeofday's microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Run [f] inside a span; with tracing off, just run [f]. *)
let within ~op name f =
  if not !enabled then f ()
  else begin
    let s = { id = !next_id; name; op; parent = !current; t0 = now (); t1 = 0.0 } in
    incr next_id;
    recorded := s :: !recorded;
    current := s.id;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        current := s.parent)
      f
  end

let duration s = s.t1 -. s.t0

(* Self time of every span: its duration minus the time its direct
   children cover.  Children never overlap: spans nest on one stack. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    !recorded;
  List.map
    (fun s -> (s, duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0))
    !recorded

(* Total self seconds per span name. *)
let self_by_name () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.0))
    (self_times ());
  tbl

let write path =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f}\n"
        s.id s.name s.op s.parent s.t0 s.t1 self)
    (List.rev (self_times ()));
  close_out oc

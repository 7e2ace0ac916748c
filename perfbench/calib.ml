(* CPU time and host speed.  The benchmark runs on shared virtual
   machines.  There, wall time carries two kinds of noise that no median
   inside a run removes.  The host steals the CPU outright, 0% to 15% of
   the time from one minute to the next; CPU time excludes steal.  And the
   CPU itself runs 20% to 100% slower while other guests share its cores
   and caches, for minutes at a time, so the drift lands between runs.

   So the benchmark's times are CPU times, and every timed run also times
   a fixed reference task, interleaved with its ops, and reports its times
   scaled to a nominal host speed:
   [scaled = raw *. nominal_ms /. median reference time].  The reference
   is the OCaml type checker (compiler-libs) on a fixed generated source:
   like the compiler under test it is allocation-heavy symbolic code with
   a large instruction footprint, so the two slow down together when the
   host does.  It calls nothing in the program, so a change to the program
   cannot move it, and a change that makes the program slower still reads
   slower.  Raw times and the speed factor go to stderr with every run. *)

(* Three copies of a block of record, variant, module and higher-order
   definitions, each copy with its own names. *)
let source =
  let block =
    "type t@ = { a@ : int; b@ : string; c@ : float list }\n\
     let f@ (x : int list) y = match x with [] -> y | a :: r -> List.fold_left (fun acc b -> acc + a * b) y r\n\
     let g@ v = { a@ = v.a@ + 1; b@ = v.b@ ^ \"x\"; c@ = List.map (fun z -> z *. 2.0) v.c@ }\n\
     module M@ = struct let h = Hashtbl.create 16 let add k v = Hashtbl.replace h k v let get k = Hashtbl.find_opt h k end\n\
     let k@ l = List.sort compare (List.map (fun (p, q) -> (q, p ^ string_of_int @)) l)\n\
     type e@ = A@ of int | B@ of e@ * e@ | C@ of string\n\
     let rec ev@ = function A@ n -> n | B@ (l, r) -> ev@ l + ev@ r | C@ s -> String.length s\n"
  in
  let b = Buffer.create 4096 in
  for i = 0 to 2 do
    String.iter
      (fun c -> if c = '@' then Buffer.add_string b (string_of_int i) else Buffer.add_char b c)
      block
  done;
  Buffer.contents b

(* CPU seconds of this process, every thread and domain included. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let env = lazy (Compmisc.init_path (); Compmisc.initial_env ())

(* Parse and type [source].  The resets drop what the type checker keeps
   between phrases, so repeated runs do not grow the heap. *)
let reference () =
  Cmt_format.clear ();
  Env.reset_cache_toplevel ();
  Typecore.reset_delayed_checks ();
  let ast = Parse.implementation (Lexing.from_string source) in
  ignore (Sys.opaque_identity (Typemod.type_structure (Lazy.force env) ast))

(* The reference runs in a child process, a second copy of this
   executable started with [--reference]: its heap is its own, so it pays
   for no garbage the program under test left behind, and the benchmark
   process makes no GC calls that would change the program's memory
   behaviour.  The child times one reference run per byte it reads and
   answers with the CPU seconds, one line each; it exits at end of input,
   so it also ends when this process does. *)
let serve_reference () =
  ignore (Lazy.force env);
  try
    while true do
      ignore (input_char stdin);
      let c0 = cpu () in
      reference ();
      Printf.printf "%.9f\n%!" (cpu () -. c0)
    done
  with End_of_file -> ()

type child = { pid : int; to_child : out_channel; from_child : in_channel }

let child = ref None

let start () =
  let exe = Sys.executable_name in
  let r0, w0 = Unix.pipe ~cloexec:true () and r1, w1 = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "--reference" |] r0 w1 Unix.stderr in
  Unix.close r0;
  Unix.close w1;
  let c =
    { pid; to_child = Unix.out_channel_of_descr w0; from_child = Unix.in_channel_of_descr r1 }
  in
  child := Some c;
  c

(* Close the child's input and wait until it has exited. *)
let stop () =
  match !child with
  | None -> ()
  | Some c ->
    child := None;
    close_out_noerr c.to_child;
    close_in_noerr c.from_child;
    ignore (Unix.waitpid [] c.pid)

let () = at_exit stop

(* One reference run in the child: its CPU seconds. *)
let run c =
  output_char c.to_child 'x';
  flush c.to_child;
  float_of_string (input_line c.from_child)

(* A fresh child's first runs are slow and uneven: they load the standard
   library's interfaces and grow the heap.  They are not kept. *)
let child_warm_up = 10

(* Reference samples, newest first: when each was taken (monotonic
   seconds) and its CPU time in ms; and the CPU seconds they took. *)
let samples = ref []
let spent = ref 0.0

(* Time the reference once, in the child. *)
let sample () =
  let c =
    match !child with
    | Some c -> c
    | None ->
      let c = start () in
      for _ = 1 to child_warm_up do
        ignore (run c)
      done;
      c
  in
  let at = Spans.now () in
  let s = run c in
  spent := !spent +. s;
  samples := (at, s *. 1000.0) :: !samples

(* Forget the samples so far: a later stretch of the run, measured
   apart, gets a speed factor of its own. *)
let restart () =
  samples := [];
  spent := 0.0

(* Time the reference if that keeps its share of the [elapsed] seconds
   at or under 5%. *)
let sample_within ~elapsed = if !spent < 0.05 *. elapsed then sample ()

(* Time the reference 25 times during set-up, so that the set-up time
   has a speed factor and the timed phase's factor a floor of samples. *)
let warm_up () =
  for _ = 1 to 25 do
    sample ()
  done

(* The reference's median CPU time, in ms, on the 2-vCPU machine the bounds in
   BENCHMARK.json were set on. *)
let nominal_ms = 4.0

let speed_of = function [] -> 1.0 | ms -> nominal_ms /. Stats.median ms

(* [nominal_ms] over the run's median reference time: below 1 on a host
   slower than nominal, above 1 on a faster one. *)
let speed () = speed_of (List.map snd !samples)

(* A time measured in this run, scaled to the nominal host speed. *)
let scale x = x *. speed ()

(* The host's speed also moves within a run, from one few seconds to the
   next.  [local ()] gives the speed factor at a moment of the run: from
   the [window] samples taken just before it and the [window] just after. *)
let window = 10

let local () =
  let a = Array.of_list (List.rev !samples) in
  let n = Array.length a in
  fun at ->
    (* the first sample taken at or after [at] *)
    let rec first lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst a.(mid) < at then first (mid + 1) hi else first lo mid
    in
    let i = first 0 n in
    let lo = max 0 (i - window) and hi = min n (i + window) in
    speed_of (List.init (hi - lo) (fun k -> snd a.(lo + k)))

(* Times taken at given moments of the run, each scaled to the nominal
   host speed with the factor at its moment. *)
let scale_local timed =
  let at = local () in
  List.map (fun (t, x) -> x *. at t) timed

(* CPU seconds of another process, every thread included, from
   /proc/<pid>/stat (utime and stime, in ticks of 1/100 s). *)
let cpu_of_pid pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | line -> (
    (* the fields after the command name, which ends with the last ')' *)
    let i = String.rindex line ')' + 2 in
    let fields = String.split_on_char ' ' (String.sub line i (String.length line - i)) in
    match (List.nth_opt fields 11, List.nth_opt fields 12) with
    | Some utime, Some stime -> (float_of_string utime +. float_of_string stime) /. 100.0
    | _ -> 0.0)

let report () =
  Printf.eprintf "perfbench: reference %d samples, median %.3f ms, host speed %.3f of nominal\n"
    (List.length !samples) (Stats.median (List.map snd !samples)) (speed ())

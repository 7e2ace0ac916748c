(* A minimal domain pool over the stdlib [Domain] API (no external
   dependency).  Work items are claimed from an atomic counter, but each
   result is written to its own slot, so the output order — and therefore
   everything downstream of it — is identical to the serial [List.map],
   whatever the scheduling.

   Failure handling is part of the contract: a raising worker records
   its exception in its slot and every domain is still joined before
   anything re-raises, so a failed [map] leaves no runaway domain behind
   and the pool is immediately reusable.  [Transient] failures are
   retried in place a bounded number of times; a cancellation
   ([Budget.Interrupted]) additionally stops the remaining domains from
   claiming new work, since promptness matters more than draining. *)

exception Transient of string

let default_retries = 2

(* A plain value, not [lazy]: helper domains and serve workers would
   otherwise race to force it, and the loser raises
   [CamlinternalLazy.Undefined]. *)
let hardware_domains = max 1 (Domain.recommended_domain_count ())

let num_domains () =
  match Sys.getenv_opt "PHOENIX_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> min d 128
    | Some _ | None -> hardware_domains)
  | None -> hardware_domains

type 'b slot = Empty | Ok_slot of 'b | Exn_slot of exn * Printexc.raw_backtrace

(* Claim-order permutation: exercised by the determinism auditor to show
   that no result depends on which domain processes which item in what
   order.  Results always land in their original slot, so the output is
   unchanged — only the scheduling varies. *)
let env_seed () =
  match Sys.getenv_opt "PHOENIX_PARALLEL_SEED" with
  | None -> None
  | Some s -> int_of_string_opt (String.trim s)

let claim_order ~seed n =
  match (match seed with Some _ -> seed | None -> env_seed ()) with
  | None -> None
  | Some s ->
    let order = Array.init n (fun i -> i) in
    Prng.shuffle (Prng.create s) order;
    Some order

let map ?domains ?seed ?(retries = default_retries) f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let requested =
    match domains with Some d when d >= 1 -> d | Some _ | None -> num_domains ()
  in
  let k = min requested n in
  let results = Array.make n Empty in
  let order = claim_order ~seed n in
  let next = Atomic.make 0 in
  let stop = Atomic.make false in
  let call i =
    (* Chaos worker faults are injected as [Transient] so the bounded
       retry gets to absorb them; the counter advances per probe, so a
       retry redraws rather than refiring deterministically. *)
    if Chaos.fire Chaos.Worker then
      raise (Transient "chaos-injected worker fault");
    f items.(i)
  in
  let run_item i =
    let rec attempt tries =
      match call i with
      | v -> Ok_slot v
      | exception Transient _ when tries < retries -> attempt (tries + 1)
      | exception e ->
        (* A cancelled worker stops the others from claiming more work;
           other failures keep draining so the re-raised error (lowest
           index) stays independent of domain scheduling. *)
        (match e with
        | Budget.Interrupted _ -> Atomic.set stop true
        | _ -> ());
        Exn_slot (e, Printexc.get_raw_backtrace ())
    in
    attempt 0
  in
  let worker () =
    let continue = ref true in
    while !continue do
      if Atomic.get stop then continue := false
      else begin
        let j = Atomic.fetch_and_add next 1 in
        if j >= n then continue := false
        else begin
          let i = match order with Some o -> o.(j) | None -> j in
          results.(i) <- run_item i
        end
      end
    done
  in
  (* Spawn helpers best-effort: if the system refuses a new domain
     (resource exhaustion), proceed with fewer — the map still completes
     on the domains we did get, down to just the caller.  Each helper
     inherits the caller's ambient budget stack (domain-local, so it
     must be handed over explicitly) — and only the caller's: budgets
     of unrelated jobs on other domains stay invisible. *)
  let ambient = Budget.ambient_budgets () in
  let spawned =
    if k <= 1 then []
    else
      List.filter_map
        (fun _ ->
          match Domain.spawn (fun () -> Budget.with_ambient_stack ambient worker)
          with
          | d -> Some d
          | exception _ -> None)
        (List.init (k - 1) Fun.id)
  in
  worker ();
  List.iter Domain.join spawned;
  (* Re-raise the lowest-index failure so error reporting does not
     depend on domain scheduling.  (After a cancellation stop, unclaimed
     slots are [Empty]; the raise below fires before they are read.) *)
  Array.iter
    (function Exn_slot (e, bt) -> Printexc.raise_with_backtrace e bt | _ -> ())
    results;
  Array.to_list
    (Array.map
       (function
         | Ok_slot r -> r
         | Empty | Exn_slot _ -> assert false)
       results)

(* Order statistics over float samples. *)

(* Linear interpolation between closest ranks, the same rule as Python's
   [statistics.quantiles(method="inclusive")] and numpy's default. *)
let percentile p xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

(* [num / den], or 0 when nothing was counted. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

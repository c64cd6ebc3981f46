(* Medians, and the highest percentile a sample set can support: one with
   at least ten samples beyond it, so a tail figure is never read off a
   handful of outliers. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Pctl.median: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the sample at 1-based rank ceil(p/100 * n).
   The epsilon keeps 99.9 * 1000 / 100 from rounding up past 999. *)
let rank ~n p =
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)))

let ladder = [ 50.; 90.; 99.; 99.9; 99.99 ]
let min_beyond = 10

type tail = {
  samples : int;
  pct : float option;  (** The percentile reported; [None] below 20 samples. *)
  value : float;  (** The sample at [pct]; [nan] when [pct] is [None]. *)
}

let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  let ok p = n - rank ~n p >= min_beyond in
  match List.rev (List.filter ok ladder) with
  | p :: _ -> { samples = n; pct = Some p; value = a.(rank ~n p - 1) }
  | [] -> { samples = n; pct = None; value = nan }

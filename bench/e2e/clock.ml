(* Every timing in the benchmark reads CLOCK_MONOTONIC through bechamel's
   clock.  The library's own [Monotonic] wraps gettimeofday, which an NTP
   step can move backwards, so the benchmark never uses it. *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9
let since t0 = now () -. t0

let time f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

(* Sleep until the monotonic instant [t]. *)
let sleep_until t =
  let d = t -. now () in
  if d > 0. then Unix.sleepf d

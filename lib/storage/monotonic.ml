(* Elapsed-time measurement for run timing, operator profiles and budgets.

   Process CPU time is wrong here: under concurrent sessions every
   domain's work inflates every other session's reading, and time spent
   blocked on I/O or a latch does not show up at all.  The wall clock
   ([Unix.gettimeofday]) can be stepped by NTP, firing deadlines early or
   making elapsed times negative.  CLOCK_MONOTONIC has neither flaw. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let elapsed_since start = now () -. start

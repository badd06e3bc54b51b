(** The skip horizon of the skip-ahead executive.

    {!Engine} collapses a quiet span into one O(1) batch update
    ({!Air.System.skip}); the span ends before the earliest of the lane's
    next preemption instant, the partitions' own bound
    ({!Air.System.quiet_bound}) and the caller's budget, whose exclusive
    end [horizon] computes. *)

open Air_sim

val horizon : now:Time.t -> remaining:int -> Time.t
(** The exclusive skip bound [now + remaining + 1], saturating at
    {!Air_sim.Time.infinity} instead of overflowing when the sum would
    exceed [max_int] (e.g. a watch running with an effectively unbounded
    budget near the end of the representable range). *)

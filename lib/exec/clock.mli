(** Next-event computation for the skip-ahead executive.

    The per-tick executive ({!Air.System.step}) only ever reacts at a
    bounded set of future instants; [Clock] computes the earliest of them
    so {!Engine} can advance the module across the quiet span in between
    with one O(1) batch update ({!Air.System.skip}) instead of one call
    per tick. *)

open Air_sim

val next_interesting : Air.System.t -> until:Time.t -> Time.t
(** The earliest future tick at which per-tick execution could do anything
    beyond advancing the clock: the minimum of the lane's next preemption
    instant (context switches, window edges, MTF boundaries — which carry
    telemetry frame closes, mode-based schedule switches and change
    actions), the active partitions' pending events (blocked-process
    wake/timeout/release instants, the tick after the earliest PAL
    deadline, the end of a running computation or of its safe contention
    headroom) and the caller's horizon [until] (end of run, next fault
    injection, next watch refresh). *)

val horizon : now:Time.t -> remaining:int -> Time.t
(** The exclusive skip bound [now + remaining + 1], saturating at
    {!Air_sim.Time.infinity} instead of overflowing when the sum would
    exceed [max_int] (e.g. a watch running with an effectively unbounded
    budget near the end of the representable range). *)

val span_quiet : Air.System.t -> bool
(** Whether the instants strictly before the next interesting tick can be
    skipped — an alias for {!Air.System.quiescent}: every partition
    holding a core is idle or mid-compute. A partition serving
    contention stall debt (interference slowdown) is {e not} quiescent:
    its extra consumed window ticks execute through the per-tick path, so
    skip-ahead never jumps over a throttled span. *)

(** The skip-ahead executive: advances a module to the next interesting
    tick in O(1) across quiet spans, bit-identically to per-tick
    execution.

    The per-tick executive pays one {!Air.System.step} per clock tick even
    when nothing can happen beyond the clock and the running computations
    advancing — every held core idle or mid-compute, no pending wake or
    deadline, no window edge. [Engine] executes every interesting tick
    through the unchanged per-tick path and, after each one that leaves
    the module quiescent (a non-negative {!Air.System.quiet_bound}, one
    pass over the lanes that also yields the partitions' event bound),
    probes the span up to the earliest of that bound, the lane's next
    preemption and the budget, and collapses it into a single batch
    update ({!Air.System.skip}). Workloads advance
    at the cost of their event density rather than their horizon — a
    process in a long computation is not dense.

    The probe is paid only after a quiescent tick, so the price of
    skip-ahead on a dense module is one failed {!Air.System.quiet_bound}
    per event tick. Event traces, telemetry frames, metrics and campaign
    verdicts are identical in both modes (the property tests in
    [test/test_exec.ml] pin this). *)

(** Execution strategy. *)
type mode =
  | Per_tick  (** Plain {!Air.System.run} — the reference behaviour. *)
  | Adaptive
      (** Skip-ahead: step every interesting tick, probe for a quiet span
          only after a quiescent one. The default. (The name is kept from
          an earlier density-gated variant so existing callers compile.) *)

type stats = {
  mutable stepped : int;  (** Ticks executed through the per-tick path. *)
  mutable skipped : int;  (** Ticks collapsed into batch clock updates. *)
  mutable probes : int;
      (** Probes — one per stepped tick whose {!Air.System.quiet_bound}
          is non-negative; a probe that skips nothing is pure overhead. *)
}

type t

val create :
  ?profiler:Profiler.t ->
  ?on_tick:(unit -> unit) ->
  ?mode:mode ->
  Air.System.t ->
  t
(** [mode] selects the strategy (default {!Adaptive}). [profiler], when
    given, receives wall-clock and tick attribution for every engine
    operation ({!Profiler}); without one the engine takes the original
    uninstrumented paths and reads no clocks. [on_tick] is fired after
    {e every} executed tick — including inside a [Per_tick] run — and
    never across a skipped span (skips are quiescence-proved, so nothing
    the observer could see happens in them); the fleet engine hangs its
    per-module gateway pump here. *)

val system : t -> Air.System.t
val mode : t -> mode
val stats : t -> stats
val profiler : t -> Profiler.t option

val simulated : t -> int
(** Total simulated ticks advanced so far ([stepped + skipped]). *)

val advance : t -> ticks:int -> unit
(** Advance simulated time by [ticks], observationally identically to
    [System.run ~ticks]. A halted module freezes the clock, as per-tick
    execution does. *)

val run_mtfs : t -> int -> unit
(** Advance by whole major time frames of the schedule current at each
    boundary: {!Air.System.run_mtfs_by} driven by {!advance}, so the frame
    arithmetic (including a different-MTF schedule switch at the
    boundary) is {!Air.System.run_mtfs}'s own. *)

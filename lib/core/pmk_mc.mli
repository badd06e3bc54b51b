(** The Partition Management Kernel executive: one Partition Scheduler +
    Dispatcher pair (Algorithms 1 and 2) per core, driven off the same
    global clock tick over a shared set of multicore scheduling tables.
    A single-core module is the one-core case; more cores are the paper's
    future-work item (iv). Mode-based schedule switches are broadcast:
    every core's scheduler stores the same next-schedule identifier and,
    because all lanes of one table share its MTF, the switch takes effect
    on every core at the same boundary.

    Correctness relies on {!Air_model.Multicore.validate}: a partition's
    windows never overlap across cores, so at any tick each partition is
    active on at most one core and the per-partition POS/PAL state is only
    ever driven from one lane. *)

open Air_model
open Ident

type t

val create :
  ?metrics:Air_obs.Metrics.t ->
  ?recorder:Air_obs.Span.t ->
  ?telemetry:Air_obs.Telemetry.t ->
  ?initial_schedule:Schedule_id.t ->
  partition_count:int ->
  Multicore.t list ->
  t
(** Raises [Invalid_argument] if any table fails
    {!Air_model.Multicore.validate}, the tables disagree on core count, or
    identifiers are not dense.

    Observation convention: [metrics] and [recorder] follow lane 0; the
    shared [telemetry] accumulator receives dispatch-jitter samples from
    every lane and lane 0 closes frames at MTF boundaries — the driving
    executive records one combined busy/idle sample per global tick
    (see {!combined_active}). *)

val core_count : t -> int
val schedule_count : t -> int
val ticks : t -> Air_sim.Time.t
val current_schedule : t -> Schedule_id.t
val next_schedule : t -> Schedule_id.t

val last_schedule_switch : t -> Air_sim.Time.t
(** Time of the last effective schedule switch (every lane switches at
    the same boundary); 0 if none ever occurred. *)

val request_schedule_switch :
  t -> Schedule_id.t -> (unit, Pmk.switch_error) result
(** Broadcast to every core's scheduler. *)

val tick : t -> Pmk.tick_outcome array
(** One outcome per core, in core order. The array and the records it
    holds are reused across calls (see {!Pmk.tick_outcome}) — valid only
    until the next {!tick}. *)

val active_partitions : t -> Partition_id.t option array
(** Who holds each core right now. Returns a shared buffer that {!tick}
    refreshes — read it, do not keep or mutate it. *)

val combined_active : t -> Partition_id.t option
(** The single occupant of the module's processing resources this tick:
    the first busy lane. Validated sharded tables keep partitions mutually
    exclusive in time, so at most one lane is busy; should several be,
    lane order breaks the tie. Feeds the combined telemetry occupancy
    sample. *)

val active_lane_of : t -> Partition_id.t -> int option
(** The lane on which the partition currently holds a core, if any — the
    contention model attributes injected bandwidth demand to it. *)

val next_preemption_tick : t -> Air_sim.Time.t
(** Minimum of {!Pmk.next_preemption_tick} over the lanes — the next
    instant at which any core's heir can change. *)

val skip : t -> ticks:Air_sim.Time.t -> unit
(** Batch-advance every lane's clock by [ticks] (see {!Pmk.skip}); the
    lanes stay in lockstep. *)

val core : t -> int -> Pmk.t
(** The underlying single-core scheduler (observation only); lane 0 owns
    module-level observation (metrics, recorder, telemetry frames,
    schedule state). Raises [Invalid_argument] out of range. *)

val pp : Format.formatter -> t -> unit

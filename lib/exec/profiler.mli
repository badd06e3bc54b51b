(** Self-profiler for the skip-ahead executive.

    Attached to an {!Engine} at creation ([Engine.create ?profiler]), it
    attributes wall-clock time and tick counts to the engine's execution
    mechanisms:

    - {e per-tick steps} — ticks executed one at a time with engine
      bookkeeping (quiescence check, probe decision) between them;
    - {e Per_tick runs} — ticks executed through [System.run] with no
      bookkeeping in between (whole [Per_tick]-mode advances);
    - {e skipped spans} — ticks collapsed into O(1) batch clock updates
      by successful probes;
    - {e probes} — one per stepped tick whose {!Air.System.quiet_bound}
      is non-negative, split into those that paid off (a span was
      skipped) and those that were pure overhead ({e wasted}). A probe's
      seconds cover the lane's preemption lookup and the skip itself; the
      partition scan ({!Air.System.quiet_bound}) runs before the probe
      and is not part of them.

    The step, batch and skip tick buckets partition the simulated horizon
    exactly:
    [step.ticks + batch.ticks + skip.ticks = simulated] — the invariant
    the [profile-smoke] CI check pins.

    Profiling is purely observational: traces, telemetry, metrics and
    fingerprints are bit-identical with and without a profiler; the only
    cost is two wall-clock reads around each instrumented operation. *)

type t

val create : unit -> t

val timestamp : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]) — the engine brackets
    instrumented operations with it. *)

(** {1 Recording} (called by {!Engine}; O(1), float adds only) *)

val note_step : t -> seconds:float -> unit
val note_batch : t -> ticks:int -> seconds:float -> unit

val note_probe : t -> skipped:int -> seconds:float -> unit
(** [skipped > 0] counts a successful probe and credits the span to the
    skip bucket; [skipped = 0] counts a wasted probe. *)

(** {1 Reading} *)

val simulated : t -> int
(** [step + batch + skip] ticks — equals the engine's simulated total. *)

val probes : t -> int

val to_text : t -> string
(** Human-readable bucket report with ns/tick rates. *)

val to_json : t -> string
(** One-line JSON document, schema ["air-profile/2"]: [simulated], the
    [buckets] object ([step]/[batch]/[skip] with tick counts, call counts
    and wall seconds) and [probes] (total/successful/wasted + seconds).
    Version 2 dropped version 1's [density] object. *)

(** Multicore partition schedules — the paper's future-work item (iv):
    "parallelism between partition time windows on a multicore platform".

    A multicore scheduling table assigns each core its own sequence of time
    windows over a common major time frame. Partitions remain logically
    single-threaded (an ARINC 653 partition has one process scheduler), so
    the new well-formedness condition beyond eqs. (21)–(23) is that the
    windows of one partition must never overlap in time {e across cores}.
    The per-cycle duration guarantee of eq. (23) generalizes with supply
    summed over all cores — sound precisely because of the no-self-overlap
    rule. *)

open Air_sim
open Ident

type t = {
  id : Schedule_id.t;
  name : string;
  mtf : Time.t;
  requirements : Schedule.requirement list;
      (** Per-partition ⟨η, d⟩, with d owed per cycle across all cores. *)
  cores : Schedule.window list array;
      (** One window list per core; each is kept sorted by offset. *)
  change_actions : (Partition_id.t * Schedule.change_action) list;
      (** Per-partition restart actions on a switch to this table;
          partitions absent from the list get [No_action]. *)
}

val make :
  ?change_actions:(Partition_id.t * Schedule.change_action) list ->
  id:Schedule_id.t ->
  name:string ->
  mtf:Time.t ->
  requirements:Schedule.requirement list ->
  Schedule.window list list ->
  t
(** One window list per core, in core order. Raises [Invalid_argument] on a
    non-positive MTF, empty core list, or non-positive window durations. *)

val core_count : t -> int

val core_view : t -> core:int -> Schedule.t
(** The single-core projection: this core's windows with the same id, name
    (suffixed [#core] unless the table has one core) and MTF. Partition requirements are projected with
    zero duration — the real requirement is a whole-table property checked
    by {!validate}. The view drives one {!Air.Pmk}-style scheduler per
    core. *)

type diagnostic =
  | Core_diagnostic of { core : int; diagnostic : Validate.diagnostic }
      (** A single-core violation of eq. (20)/(21) on that core's lane. *)
  | Parallel_self_overlap of {
      partition : Partition_id.t;
      core_a : int;
      window_a : Schedule.window;
      core_b : int;
      window_b : Schedule.window;
    }
      (** The partition would hold two cores simultaneously. *)
  | Mtf_not_multiple_of_lcm of { mtf : Time.t; lcm : Time.t }
  | Insufficient_cycle_duration of {
      partition : Partition_id.t;
      cycle_index : int;
      provided : Time.t;  (** Summed over all cores. *)
      required : Time.t;
    }

val pp_diagnostic : Format.formatter -> diagnostic -> unit

val validate : t -> diagnostic list

val cycle_supply : t -> Partition_id.t -> k:int -> Time.t
(** Window time granted to the partition during cycle [k], summed over all
    cores (the multicore generalization of the eq. (23) left-hand side). *)

val utilization : t -> float
(** Busy fraction summed over cores, in [0, core count]. *)

val shard : cores:int -> Schedule.t -> t
(** Derive a multicore table from a single-core schedule by assigning
    partition [m] (in Q order) to core [m mod cores], keeping every window
    at its original offset. Because the source table has no overlapping
    windows, the result trivially satisfies the no-self-overlap rule and is
    time-faithful: each partition runs in exactly the instants the
    single-core table granted it, cores merely idle in the gaps. Change
    actions and requirements are inherited. Raises [Invalid_argument] on a
    non-positive core count. *)

val pp : Format.formatter -> t -> unit

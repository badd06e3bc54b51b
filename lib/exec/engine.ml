open Air_sim
open Air

type mode = Per_tick | Adaptive

type stats = {
  mutable stepped : int;
  mutable skipped : int;
  mutable probes : int;
}

type t = {
  system : System.t;
  mode : mode;
  stats : stats;
  on_tick : (unit -> unit) option;
      (* Fired after every tick executed through the per-tick path (and
         never across a skipped span, which is quiescent by proof): the
         fleet engine hangs its gateway pump here so cross-module sends
         are observed at exactly the tick that produced them. *)
  profiler : Profiler.t option;
      (* Null-object discipline: every instrumented operation matches on
         this once; [None] takes the original uninstrumented path, so an
         unprofiled engine pays a single branch per operation and no clock
         reads. *)
}

let create ?profiler ?on_tick ?(mode = Adaptive) system =
  { system;
    mode;
    stats = { stepped = 0; skipped = 0; probes = 0 };
    on_tick;
    profiler }

let system t = t.system
let mode t = t.mode
let stats t = t.stats
let profiler t = t.profiler
let simulated t = t.stats.stepped + t.stats.skipped
let halted t = Option.is_some (System.halted t.system)

(* Collapse the quiet span up to the earliest of the partitions' [bound]
   ({!System.quiet_bound}, already evaluated by the caller), the lane's
   next preemption instant (context switch, window edge or MTF boundary,
   which carries telemetry frame closes, mode-based schedule switches and
   change actions) and the budget horizon, with one O(1) batch clock
   update. Inactive partitions need no source of their own: their next
   involvement is a dispatch, a preemption-table entry. Returns the number
   of ticks skipped (0 when the very next tick is already interesting). *)
let probe_raw t ~remaining ~bound =
  t.stats.probes <- t.stats.probes + 1;
  let now = Pmk_mc.ticks (System.lane t.system) in
  let until = Clock.horizon ~now ~remaining in
  let lane_next = Pmk_mc.next_preemption_tick (System.lane t.system) in
  let next = Time.min until (Time.min lane_next bound) in
  let span = next - 1 - now in
  let span = if span < remaining then span else remaining in
  if span > 0 then begin
    System.skip t.system ~ticks:span;
    t.stats.skipped <- t.stats.skipped + span;
    span
  end
  else 0

let probe t ~remaining ~bound =
  match t.profiler with
  | None -> probe_raw t ~remaining ~bound
  | Some p ->
    let t0 = Profiler.timestamp () in
    let skipped = probe_raw t ~remaining ~bound in
    Profiler.note_probe p ~skipped ~seconds:(Profiler.timestamp () -. t0);
    skipped

(* One executed tick, plus the per-tick observer when one is hooked. *)
let step_raw t =
  match t.on_tick with
  | None -> System.step t.system
  | Some f ->
    System.step t.system;
    f ()

(* [n] executed ticks. Without an observer this is [System.run] — the
   reference path; with one, the same per-tick loop with the hook fired
   after each step, so hooked and unhooked advances execute the module
   identically. *)
let run_raw t ~ticks =
  match t.on_tick with
  | None -> System.run t.system ~ticks
  | Some f ->
    for _ = 1 to ticks do
      System.step t.system;
      f ()
    done

(* One tick through the per-tick path, attributed to the step bucket. *)
let step_one t =
  match t.profiler with
  | None -> step_raw t
  | Some p ->
    let t0 = Profiler.timestamp () in
    step_raw t;
    Profiler.note_step p ~seconds:(Profiler.timestamp () -. t0)

(* [n] ticks through [run_raw] (a whole Per_tick-mode advance),
   attributed to the batch bucket. *)
let run_batch t ~ticks =
  match t.profiler with
  | None -> run_raw t ~ticks
  | Some p ->
    let t0 = Profiler.timestamp () in
    run_raw t ~ticks;
    Profiler.note_batch p ~ticks ~seconds:(Profiler.timestamp () -. t0)

(* Skip-ahead: execute every interesting tick through the per-tick path
   and, after each one that leaves the module quiescent (a non-negative
   [System.quiet_bound], one pass over the lanes that also yields the
   partitions' event bound), probe for a quiet span and collapse it. Idle
   and mid-compute spans are both quiescent, so only event ticks fail the
   check, and a failed check is all they pay over [Per_tick] — measurable
   only on a module with an event due every tick (DESIGN §8.4). Skips are
   guarded by the quiescence proof, so traces, telemetry, metrics and
   campaign fingerprints are bit-identical to [Per_tick]. *)
let skip_ahead t ~ticks =
  let remaining = ref ticks in
  while !remaining > 0 && not (halted t) do
    step_one t;
    decr remaining;
    t.stats.stepped <- t.stats.stepped + 1;
    if !remaining > 0 && not (halted t) then begin
      let bound = System.quiet_bound t.system in
      if bound >= 0 then
        remaining := !remaining - probe t ~remaining:!remaining ~bound
    end
  done

(* Advance the module by [ticks] clock ticks, observationally identically
   to [System.run ~ticks]: every interesting tick is executed through the
   per-tick path, and each provably-quiet span in between collapses into
   one O(1) batch clock update. A halted module freezes the clock in all
   modes, so the remaining budget is simply dropped. *)
let advance t ~ticks =
  if ticks > 0 then
    match t.mode with
    | Per_tick ->
      run_batch t ~ticks;
      t.stats.stepped <- t.stats.stepped + ticks
    | Adaptive -> skip_ahead t ~ticks

let run_mtfs t n = System.run_mtfs_by (fun ticks -> advance t ~ticks) t.system n

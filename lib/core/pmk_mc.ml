open Air_model

type t = {
  cores : Pmk.t array;
  outs : Pmk.tick_outcome array;
      (* Per-core outcomes: each slot aliases the core's own reused record
         ({!Pmk.outcome}), which [Pmk.tick] rewrites in place — so [tick]
         neither allocates nor stores into this array. *)
  actives : Ident.Partition_id.t option array;
      (* Each lane's active partition, refreshed by [tick] — the only
         operation that can change it. *)
}

let create ?metrics ?recorder ?telemetry ?initial_schedule ~partition_count
    tables =
  if tables = [] then invalid_arg "Pmk_mc.create: no schedules";
  List.iter
    (fun (mc : Multicore.t) ->
      match Multicore.validate mc with
      | [] -> ()
      | d :: _ ->
        invalid_arg
          (Format.asprintf "Pmk_mc.create: invalid table: %a"
             Multicore.pp_diagnostic d))
    tables;
  let core_counts =
    List.map (fun (mc : Multicore.t) -> Multicore.core_count mc) tables
  in
  let cores_n = List.hd core_counts in
  if List.exists (fun n -> n <> cores_n) core_counts then
    invalid_arg "Pmk_mc.create: tables disagree on core count";
  (* Cross-core window allotment, indexed by schedule id then partition:
     a partition's telemetry grant is the sum of its windows over every
     lane, not just lane 0's. *)
  let allotment =
    let n = List.length tables in
    let by_id = Array.make n [||] in
    List.iter
      (fun (mc : Multicore.t) ->
        let totals = Array.make partition_count 0 in
        Array.iter
          (List.iter (fun (w : Schedule.window) ->
               let p = Ident.Partition_id.index w.partition in
               totals.(p) <- totals.(p) + w.duration))
          mc.Multicore.cores;
        by_id.(Ident.Schedule_id.index mc.Multicore.id) <- totals)
      tables;
    by_id
  in
  let cores =
    (* Observation convention: metrics follow lane 0 (the primary lane);
       the recorder is shared by every lane — each tags its
       partition-window spans with its lane index as the sub-lane, and
       only lane 0 records module-track schedule-switch instants. The
       telemetry accumulator is shared by all lanes for dispatch-jitter
       samples and lane 0 owns frame close; the executive records one
       combined busy/idle sample per global tick (the tables'
       no-self-overlap rule guarantees at most one busy lane per tick for
       sharded schedules). *)
    Array.init cores_n (fun core ->
        Pmk.create
          ?metrics:(if core = 0 then metrics else None)
          ?recorder ?telemetry ~lane:core ~window_allotment:allotment
          ?initial_schedule ~partition_count
          (List.map (fun mc -> Multicore.core_view mc ~core) tables))
  in
  { cores;
    outs = Array.map Pmk.outcome cores;
    actives = Array.make cores_n None }

let core_count t = Array.length t.cores
let schedule_count t = Pmk.schedule_count t.cores.(0)
let ticks t = Pmk.ticks t.cores.(0)
let current_schedule t = Pmk.current_schedule t.cores.(0)
let next_schedule t = Pmk.next_schedule t.cores.(0)
let last_schedule_switch t = Pmk.last_schedule_switch t.cores.(0)

let request_schedule_switch t id =
  (* Broadcast; every core holds the same schedule set, so the outcomes
     coincide — report the first core's. *)
  let results =
    Array.map (fun pmk -> Pmk.request_schedule_switch pmk id) t.cores
  in
  results.(0)

let tick t =
  for i = 0 to Array.length t.cores - 1 do
    let pmk = t.cores.(i) in
    ignore (Pmk.tick pmk : Pmk.tick_outcome);
    (* A lane's occupant changes only at a context switch: skipping the
       unchanged store keeps the write barrier off the per-tick path. *)
    let p = Pmk.active_partition pmk in
    if t.actives.(i) != p then t.actives.(i) <- p
  done;
  t.outs

let active_partitions t = t.actives

(* The scans below are top-level loops, not local closures, so the
   executive's per-tick and per-probe calls stay allocation-free. *)
let rec first_active actives n i =
  if i >= n then None
  else
    match actives.(i) with
    | Some _ as p -> p
    | None -> first_active actives n (i + 1)

let combined_active t = first_active t.actives (Array.length t.actives) 0

let rec find_lane actives pid n i =
  if i >= n then None
  else
    match actives.(i) with
    | Some p when Ident.Partition_id.equal p pid -> Some i
    | Some _ | None -> find_lane actives pid n (i + 1)

let active_lane_of t pid =
  find_lane t.actives pid (Array.length t.actives) 0

let rec earliest_preemption cores n i acc =
  if i >= n then acc
  else
    let next = Pmk.next_preemption_tick cores.(i) in
    earliest_preemption cores n (i + 1) (if next < acc then next else acc)

let next_preemption_tick t =
  earliest_preemption t.cores (Array.length t.cores) 0 Air_sim.Time.infinity

let skip t ~ticks =
  for i = 0 to Array.length t.cores - 1 do
    Pmk.skip t.cores.(i) ~ticks
  done

let core t i =
  if i < 0 || i >= core_count t then invalid_arg "Pmk_mc.core: out of range";
  t.cores.(i)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i pmk ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "lane %d: %a" i Pmk.pp pmk)
    t.cores;
  Format.fprintf ppf "@]"

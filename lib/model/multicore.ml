open Air_sim
open Ident

type t = {
  id : Schedule_id.t;
  name : string;
  mtf : Time.t;
  requirements : Schedule.requirement list;
  cores : Schedule.window list array;
  change_actions : (Partition_id.t * Schedule.change_action) list;
}

let make ?(change_actions = []) ~id ~name ~mtf ~requirements cores =
  if mtf <= 0 then invalid_arg "Multicore.make: non-positive MTF";
  if cores = [] then invalid_arg "Multicore.make: at least one core";
  List.iter
    (List.iter (fun (w : Schedule.window) ->
         if w.duration <= 0 then
           invalid_arg "Multicore.make: non-positive window duration"))
    cores;
  let sort ws =
    List.stable_sort
      (fun (a : Schedule.window) (b : Schedule.window) ->
        Time.compare a.offset b.offset)
      ws
  in
  { id; name; mtf; requirements;
    cores = Array.of_list (List.map sort cores);
    change_actions }

let core_count t = Array.length t.cores

let core_view t ~core =
  if core < 0 || core >= core_count t then
    invalid_arg "Multicore.core_view: core out of range";
  let windows = t.cores.(core) in
  let present =
    match
      List.filter
        (fun (r : Schedule.requirement) ->
          List.exists
            (fun (w : Schedule.window) ->
              Partition_id.equal w.partition r.partition)
            windows)
        t.requirements
    with
    (* An all-idle lane (a sharding with more cores than partitions, or a
       schedule whose partition set does not reach this core) keeps the
       full requirement set so its projection still forms a valid
       single-core schedule. *)
    | [] -> t.requirements
    | present -> present
  in
  let actions =
    (* A change action belongs to the core that dispatches the partition:
       exactly one core per partition (no-self-overlap rule), so the action
       fires exactly once system-wide. *)
    List.filter
      (fun (pid, _) ->
        List.exists
          (fun (w : Schedule.window) -> Partition_id.equal w.partition pid)
          windows)
      t.change_actions
  in
  (* A one-core table's only lane keeps the table's own name, so a
     single-core module's recorder spans and timeline read as the
     document does. *)
  let name =
    if core_count t = 1 then t.name else Printf.sprintf "%s#%d" t.name core
  in
  Schedule.make ~change_actions:actions ~id:t.id ~name
    ~mtf:t.mtf
    ~requirements:
      (List.map
         (fun (r : Schedule.requirement) -> { r with Schedule.duration = 0 })
         present)
    windows

type diagnostic =
  | Core_diagnostic of { core : int; diagnostic : Validate.diagnostic }
  | Parallel_self_overlap of {
      partition : Partition_id.t;
      core_a : int;
      window_a : Schedule.window;
      core_b : int;
      window_b : Schedule.window;
    }
  | Mtf_not_multiple_of_lcm of { mtf : Time.t; lcm : Time.t }
  | Insufficient_cycle_duration of {
      partition : Partition_id.t;
      cycle_index : int;
      provided : Time.t;
      required : Time.t;
    }

let pp_diagnostic ppf = function
  | Core_diagnostic { core; diagnostic } ->
    Format.fprintf ppf "core %d: %a" core Validate.pp_diagnostic diagnostic
  | Parallel_self_overlap { partition; core_a; window_a; core_b; window_b } ->
    Format.fprintf ppf
      "%a scheduled on core %d (%a) and core %d (%a) simultaneously"
      Partition_id.pp partition core_a Schedule.pp_window window_a core_b
      Schedule.pp_window window_b
  | Mtf_not_multiple_of_lcm { mtf; lcm } ->
    Format.fprintf ppf "eq.(22): MTF=%a is not a multiple of lcm(η)=%a"
      Time.pp mtf Time.pp lcm
  | Insufficient_cycle_duration { partition; cycle_index; provided; required }
    ->
    Format.fprintf ppf
      "eq.(23, multicore): %a gets %a < d=%a in cycle k=%d" Partition_id.pp
      partition Time.pp provided Time.pp required cycle_index

let windows_intersect (a : Schedule.window) (b : Schedule.window) =
  a.offset < Time.add b.offset b.duration
  && b.offset < Time.add a.offset a.duration

let cycle_supply t pid ~k =
  let r =
    match
      List.find_opt
        (fun (r : Schedule.requirement) -> Partition_id.equal r.partition pid)
        t.requirements
    with
    | Some r -> r
    | None -> invalid_arg "Multicore.cycle_supply: partition not in Q"
  in
  let lo = k * r.Schedule.cycle and hi = (k + 1) * r.Schedule.cycle in
  Array.fold_left
    (fun acc windows ->
      List.fold_left
        (fun acc (w : Schedule.window) ->
          if
            Partition_id.equal w.partition pid
            && Time.(lo <= w.offset)
            && Time.(w.offset < hi)
          then Time.add acc w.duration
          else acc)
        acc windows)
    Time.zero t.cores

let validate t =
  let diags = ref [] in
  let push d = diags := d :: !diags in
  (* Per-core structural checks through the single-core validator; the
     zero-duration projected requirements disable the per-core eq. (23). *)
  Array.iteri
    (fun core _ ->
      let view = core_view t ~core in
      List.iter
        (fun d -> push (Core_diagnostic { core; diagnostic = d }))
        (List.filter
           (function
             | Validate.Empty_requirements _ -> false
             | _ -> true)
           (Validate.validate view)))
    t.cores;
  (* No partition on two cores at once. *)
  let n = core_count t in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      List.iter
        (fun (wa : Schedule.window) ->
          List.iter
            (fun (wb : Schedule.window) ->
              if
                Partition_id.equal wa.partition wb.partition
                && windows_intersect wa wb
              then
                push
                  (Parallel_self_overlap
                     { partition = wa.partition;
                       core_a = a;
                       window_a = wa;
                       core_b = b;
                       window_b = wb }))
            t.cores.(b))
        t.cores.(a)
    done
  done;
  (* eq. (22) over the shared MTF. *)
  let cycles =
    List.filter_map
      (fun (r : Schedule.requirement) ->
        if r.cycle > 0 then Some r.cycle else None)
      t.requirements
  in
  (match cycles with
  | [] -> ()
  | _ ->
    let lcm = Time.lcm_list cycles in
    if t.mtf mod lcm <> 0 then
      push (Mtf_not_multiple_of_lcm { mtf = t.mtf; lcm }));
  (* eq. (23) with cross-core supply. *)
  List.iter
    (fun (r : Schedule.requirement) ->
      if r.cycle > 0 && r.duration > 0 && t.mtf mod r.cycle = 0 then
        for k = 0 to (t.mtf / r.cycle) - 1 do
          let provided = cycle_supply t r.partition ~k in
          if Time.(provided < r.duration) then
            push
              (Insufficient_cycle_duration
                 { partition = r.partition;
                   cycle_index = k;
                   provided;
                   required = r.duration })
        done)
    t.requirements;
  List.rev !diags

let utilization t =
  let busy =
    Array.fold_left
      (fun acc windows ->
        List.fold_left
          (fun acc (w : Schedule.window) -> acc + w.Schedule.duration)
          acc windows)
      0 t.cores
  in
  float_of_int busy /. float_of_int t.mtf

let shard ~cores (s : Schedule.t) =
  if cores <= 0 then invalid_arg "Multicore.shard: non-positive core count";
  (* Partition m (in order of first appearance in Q) lands on core
     m mod cores; every window keeps its original offset and duration, so
     the sharded table is time-faithful to the single-core schedule. The
     single-core table has no overlapping windows, hence no partition can
     hold two cores at once and no two windows collide on a core. *)
  let order = Schedule.partitions s in
  let core_of pid =
    let rec index i = function
      | [] -> 0
      | p :: rest -> if Partition_id.equal p pid then i else index (i + 1) rest
    in
    index 0 order mod cores
  in
  let lanes = Array.make cores [] in
  List.iter
    (fun (w : Schedule.window) ->
      let c = core_of w.partition in
      lanes.(c) <- w :: lanes.(c))
    s.Schedule.windows;
  make ~change_actions:s.Schedule.change_actions ~id:s.Schedule.id
    ~name:s.Schedule.name ~mtf:s.Schedule.mtf
    ~requirements:s.Schedule.requirements
    (Array.to_list (Array.map List.rev lanes))

let pp ppf t =
  Format.fprintf ppf "@[<v2>%a %s (multicore ×%d): MTF=%a@,Q = {%a}"
    Schedule_id.pp t.id t.name (core_count t) Time.pp t.mtf
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Schedule.pp_requirement)
    t.requirements;
  Array.iteri
    (fun core windows ->
      Format.fprintf ppf "@,core %d: {%a}" core
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Schedule.pp_window)
        windows)
    t.cores;
  Format.fprintf ppf "@]"

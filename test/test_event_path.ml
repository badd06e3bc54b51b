(* The event path: the chunked trace against a plain list model, and the
   allocation budget of recording (nothing beyond the event's own payload,
   nothing at all for the shared kinds), of the skip probe and of deadline
   re-registration. *)

open Air_sim

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* Entries per trace chunk, as documented in [trace.mli]. *)
let chunk = 1024

(* --- Trace against a list model ------------------------------------------- *)

(* A run: the capacity, and the (time, event) pairs recorded in order.
   Times are non-decreasing with repeats, so [between]'s boundaries land
   on shared stamps; events are their sequence numbers. *)
let gen_run =
  let open QCheck.Gen in
  let* length =
    oneof
      [ oneofl [ 0; 1; chunk - 1; chunk; chunk + 1; (3 * chunk) + 5 ];
        int_range 0 (5 * chunk) ]
  in
  let* capacity =
    oneof
      [ oneofl [ None; Some 1; Some (chunk - 1); Some chunk; Some (chunk + 1) ];
        map Option.some (int_range 1 (3 * chunk)) ]
  in
  let* steps = list_repeat length (int_range 0 3) in
  let last, times = List.fold_left_map (fun t d -> (t + d, t + d)) 0 steps in
  let* from = int_range 0 (last + 2) in
  let* width = int_range 0 (last + 2) in
  let* modulus = int_range 1 7 in
  return (capacity, List.mapi (fun i t -> (t, i)) times, from, width, modulus)

let print_run (capacity, events, from, width, modulus) =
  Printf.sprintf "capacity %s, %d events, between %d +%d, mod %d"
    (match capacity with None -> "none" | Some c -> string_of_int c)
    (List.length events) from width modulus

let rec drop n = function
  | _ :: rest when n > 0 -> drop (n - 1) rest
  | l -> l

let trace_matches_list_model =
  QCheck.Test.make ~count:200 ~name:"trace agrees with a list model"
    (QCheck.make ~print:print_run gen_run)
    (fun (capacity, events, from, width, modulus) ->
      let tr = Trace.create ?capacity () in
      List.iter (fun (time, ev) -> Trace.record tr time ev) events;
      let total = List.length events in
      let kept =
        match capacity with
        | Some c when total > c -> drop (total - c) events
        | Some _ | None -> events
      in
      let p ev = ev mod modulus = 0 in
      let until = from + width in
      let iterated = ref [] in
      Trace.iter (fun time ev -> iterated := (time, ev) :: !iterated) tr;
      let first = List.find_opt (fun (_, ev) -> p ev) kept in
      let last = List.find_opt (fun (_, ev) -> p ev) (List.rev kept) in
      Trace.total tr = total
      && Trace.length tr = List.length kept
      && Trace.to_list tr = kept
      && List.rev !iterated = kept
      && Trace.events tr = List.map snd kept
      && List.rev (Trace.fold (fun acc time ev -> (time, ev) :: acc) [] tr)
         = kept
      && List.init (Trace.length tr) (fun i ->
             (Trace.time_at tr i, Trace.get tr i))
         = kept
      && Trace.between tr from until
         = List.filter (fun (time, _) -> from <= time && time < until) kept
      && Trace.count p tr
         = List.length (List.filter (fun (_, ev) -> p ev) kept)
      && Trace.find_first p tr = first
      && Trace.find_last p tr = last)

let trace_get_out_of_range () =
  let tr = Trace.create ~capacity:3 () in
  for i = 0 to 9 do Trace.record tr i i done;
  check Alcotest.int "oldest retained" 7 (Trace.get tr 0);
  check Alcotest.int "newest retained" 9 (Trace.time_at tr 2);
  List.iter
    (fun i ->
      match Trace.get tr i with
      | _ -> Alcotest.failf "get %d accepted" i
      | exception Invalid_argument _ -> ())
    [ -1; 3 ]

(* --- Allocation budget ----------------------------------------------------- *)

(* [Gc.minor_words] itself returns a boxed float, so the probe's own cost
   is calibrated first and the measured delta must equal it exactly. *)
let minor_words_of f =
  let calibration =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  after -. before -. calibration

let trace_record_allocates_nothing () =
  let payload = "already allocated" in
  let unbounded = Trace.create () in
  Trace.record unbounded 0 payload;
  check (Alcotest.float 0.) "unbounded, inside a chunk" 0.
    (minor_words_of (fun () ->
         for i = 1 to chunk - 2 do Trace.record unbounded i payload done));
  (* Chunks are allocated in the major heap, so a bounded trace turning
     them over puts nothing on the minor heap either. *)
  let bounded = Trace.create ~capacity:100 () in
  for i = 0 to (8 * chunk) - 1 do Trace.record bounded i payload done;
  check (Alcotest.float 0.) "bounded, across chunks" 0.
    (minor_words_of (fun () ->
         for i = 1 to 8 * chunk do Trace.record bounded i payload done));
  check Alcotest.int "bounded length" 100 (Trace.length bounded)

(* Every emit feeds the trace and the per-kind counts; with the trace
   inside a chunk, an emitted [Fault_injected] costs only its own
   two-word payload. *)
let emit_allocates_only_the_payload () =
  let s = Air_workload.Satellite.make () in
  Air.System.run s ~ticks:100;
  let label = "already allocated" in
  Air.System.note_fault s ~label;
  let room = chunk - 1 - (Trace.total (Air.System.trace s) mod chunk) in
  check Alcotest.bool "room left in the chunk" true (room > 0);
  check (Alcotest.float 0.) "payload words only"
    (float_of_int (2 * room))
    (minor_words_of (fun () ->
         for _ = 1 to room do Air.System.note_fault s ~label done));
  check Alcotest.(option int) "counted" (Some (room + 1))
    (List.assoc_opt "fault-injected" (Air.System.event_counts s))

let has_schedulable_allocates_nothing () =
  let s = Air_workload.Satellite.make () in
  Air.System.run s ~ticks:100;
  let kernel = Air.System.kernel_of s (Air_model.Ident.Partition_id.make 0) in
  check (Alcotest.float 0.) "quiescence probe" 0.
    (minor_words_of (fun () ->
         for _ = 1 to 1000 do
           ignore (Air_pos.Kernel.has_schedulable kernel)
         done))

(* Re-registering a process already in the linked-list store relinks its
   node: no index option, no insert closure, no fresh [Some]. *)
let deadline_reregister_allocates_nothing () =
  let store = Air.Deadline_store.create Air.Deadline_store.Linked_list_impl in
  for p = 0 to 2 do
    Air.Deadline_store.register store ~process:p (100 * (p + 1))
  done;
  check (Alcotest.float 0.) "linked-list re-registration" 0.
    (minor_words_of (fun () ->
         for i = 1 to 3000 do
           Air.Deadline_store.register store ~process:(i mod 3)
             (1000 + (i * 7 mod 500))
         done));
  check Alcotest.int "size" 3 (Air.Deadline_store.size store)

(* Step [s] until its trace's current chunk has room for [n] more
   events. *)
let room_for s n =
  let room () = chunk - 1 - (Trace.total (Air.System.trace s) mod chunk) in
  let ticks = ref 0 in
  while room () < n && !ticks < 10_000 do
    Air.System.step s;
    incr ticks
  done;
  room () >= n

(* The two most frequent kinds are built once at boot: emitting one
   inside a trace chunk allocates nothing. A state change is driven
   through the kernel hook ([Kernel.wake] of a blocked process); the block
   that precedes each wake is outside the measurement. *)
let shared_events_allocate_nothing () =
  let s = Air_workload.Satellite.make () in
  Air.System.run s ~ticks:100;
  let pid = Air_model.Ident.Partition_id.make 0 in
  let kernel = Air.System.kernel_of s pid in
  check Alcotest.bool "room left in the chunk" true (room_for s 100);
  let now = Air.System.now s in
  let words = ref 0. in
  for _ = 1 to 50 do
    Air_pos.Kernel.block kernel ~now 0 Air_pos.Kernel.Suspended
      ~timeout:Time.infinity;
    words :=
      !words
      +. minor_words_of (fun () ->
             Air_pos.Kernel.wake kernel ~now 0 ~timed_out:false)
  done;
  check (Alcotest.float 0.) "process-state-change emit" 0. !words;
  let before = Air.System.event_counts s in
  let from = Some pid in
  check Alcotest.bool "room left in the chunk" true (room_for s 100);
  check (Alcotest.float 0.) "context-switch emit" 0.
    (minor_words_of (fun () ->
         for _ = 1 to 50 do
           Air.Runtime.emit_context_switch s ~from ~to_:None;
           Air.Runtime.emit_context_switch s ~from:None ~to_:from
         done));
  let count kind l = Option.value ~default:0 (List.assoc_opt kind l) in
  check Alcotest.int "counted" 100
    (count "context-switch" (Air.System.event_counts s)
    - count "context-switch" before)

(* The skip probe runs after every stepped tick: sampled after each tick
   of two frames of the example module (telemetry and contention on), it
   allocates nothing whatever the partitions' state. *)
let quiet_bound_allocates_nothing () =
  let cfg =
    match
      Air_config.Loader.load_file "../examples/configs/leo_satellite.air"
    with
    | Ok cfg -> cfg
    | Error e -> Alcotest.fail e
  in
  let s = Air.System.create cfg in
  let words = ref 0. and quiet = ref 0 in
  for _ = 1 to 4000 do
    Air.System.step s;
    words :=
      !words
      +. minor_words_of (fun () ->
             if Air.System.quiet_bound s >= 0 then incr quiet)
  done;
  check Alcotest.bool "some ticks quiet, some not" true
    (!quiet > 0 && !quiet < 4000);
  check (Alcotest.float 0.) "System.quiet_bound" 0. !words

let suite =
  [ qcheck trace_matches_list_model;
    Alcotest.test_case "trace: get out of range" `Quick trace_get_out_of_range;
    Alcotest.test_case "alloc: Trace.record" `Quick
      trace_record_allocates_nothing;
    Alcotest.test_case "alloc: System emit" `Quick
      emit_allocates_only_the_payload;
    Alcotest.test_case "alloc: Kernel.has_schedulable" `Quick
      has_schedulable_allocates_nothing;
    Alcotest.test_case "alloc: Deadline_store re-registration" `Quick
      deadline_reregister_allocates_nothing;
    Alcotest.test_case "alloc: shared event values" `Quick
      shared_events_allocate_nothing;
    Alcotest.test_case "alloc: System.quiet_bound" `Quick
      quiet_bound_allocates_nothing ]

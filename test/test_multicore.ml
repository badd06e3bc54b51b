(* Tests for the multicore extension (paper future work iv): table
   validation including the cross-core self-overlap rule, per-core
   projections, cross-core supply, and the broadcast PMK. *)

open Air_model
open Air
open Ident

let check = Alcotest.check
let pid = Partition_id.make
let sid = Schedule_id.make
let w partition offset duration = { Schedule.partition; offset; duration }
let q partition cycle duration = { Schedule.partition; cycle; duration }

(* Two cores, MTF 100: P1 owns core 0 entirely; P2 and P3 share core 1. *)
let duo =
  Multicore.make ~id:(sid 0) ~name:"duo" ~mtf:100
    ~requirements:[ q (pid 0) 100 100; q (pid 1) 100 40; q (pid 2) 100 60 ]
    [ [ w (pid 0) 0 100 ]; [ w (pid 1) 0 40; w (pid 2) 40 60 ] ]

(* P1 gets windows on both cores, disjoint in time — legal, and its supply
   per cycle is the sum. *)
let migrating =
  Multicore.make ~id:(sid 0) ~name:"migrating" ~mtf:100
    ~requirements:[ q (pid 0) 100 70; q (pid 1) 100 60 ]
    [ [ w (pid 0) 0 40; w (pid 1) 40 60 ]; [ w (pid 0) 40 30 ] ]

let valid_tables () =
  check Alcotest.int "duo valid" 0 (List.length (Multicore.validate duo));
  check Alcotest.int "migrating valid" 0
    (List.length (Multicore.validate migrating))

let self_overlap_detected () =
  let bad =
    Multicore.make ~id:(sid 0) ~name:"bad" ~mtf:100
      ~requirements:[ q (pid 0) 100 50 ]
      [ [ w (pid 0) 0 50 ]; [ w (pid 0) 25 50 ] ]
  in
  check Alcotest.bool "parallel self overlap" true
    (List.exists
       (function Multicore.Parallel_self_overlap _ -> true | _ -> false)
       (Multicore.validate bad))

let per_core_overlap_detected () =
  let bad =
    Multicore.make ~id:(sid 0) ~name:"bad" ~mtf:100
      ~requirements:[ q (pid 0) 100 30; q (pid 1) 100 30 ]
      [ [ w (pid 0) 0 30; w (pid 1) 20 30 ]; [] ]
  in
  check Alcotest.bool "core-level eq.(21)" true
    (List.exists
       (function
         | Multicore.Core_diagnostic
             { diagnostic = Validate.Window_overlap _; _ } ->
           true
         | _ -> false)
       (Multicore.validate bad))

let cross_core_supply_counts () =
  (* migrating: P1 has 40 on core 0 and 30 on core 1 → 70 per cycle. *)
  check Alcotest.int "summed supply" 70
    (Multicore.cycle_supply migrating (pid 0) ~k:0);
  let insufficient =
    Multicore.make ~id:(sid 0) ~name:"short" ~mtf:100
      ~requirements:[ q (pid 0) 100 80 ]
      [ [ w (pid 0) 0 40 ]; [ w (pid 0) 40 30 ] ]
  in
  check Alcotest.bool "eq.(23) multicore" true
    (List.exists
       (function
         | Multicore.Insufficient_cycle_duration { provided = 70; required = 80; _ } ->
           true
         | _ -> false)
       (Multicore.validate insufficient))

let core_view_projection () =
  let view0 = Multicore.core_view duo ~core:0 in
  let view1 = Multicore.core_view duo ~core:1 in
  check Alcotest.int "core 0: one window" 1 (List.length view0.Schedule.windows);
  check Alcotest.int "core 1: two windows" 2 (List.length view1.Schedule.windows);
  (* Projected requirements have zero duration so the single-core
     validator does not re-impose eq. (23) per lane. *)
  check Alcotest.int "view valid" 0 (List.length (Validate.validate view1));
  check Alcotest.bool "P1 absent from core 1" true
    (Option.is_none (Schedule.requirement_for view1 (pid 0)));
  check Alcotest.string "lane names carry the core" "duo#1"
    view1.Schedule.name;
  (* One core: the lane is the table itself and keeps its name. *)
  let solo =
    Multicore.make ~id:(sid 0) ~name:"solo" ~mtf:100
      ~requirements:[ q (pid 0) 100 100 ]
      [ [ w (pid 0) 0 100 ] ]
  in
  check Alcotest.string "one-core view keeps the name" "solo"
    (Multicore.core_view solo ~core:0).Schedule.name

let utilization_across_cores () =
  check (Alcotest.float 1e-9) "duo utilization" 2.0 (Multicore.utilization duo);
  check (Alcotest.float 1e-9) "migrating utilization" 1.3
    (Multicore.utilization migrating)

(* --- Pmk_mc --------------------------------------------------------------- *)

let alt =
  Multicore.make ~id:(sid 1) ~name:"alt" ~mtf:100
    ~requirements:[ q (pid 0) 100 100; q (pid 1) 100 60; q (pid 2) 100 40 ]
    [ [ w (pid 0) 0 100 ]; [ w (pid 2) 0 40; w (pid 1) 40 60 ] ]

let mc_parallel_dispatch () =
  let pmk = Pmk_mc.create ~partition_count:3 [ duo; alt ] in
  check Alcotest.int "two cores" 2 (Pmk_mc.core_count pmk);
  ignore (Pmk_mc.tick pmk);
  (* At tick 0: P1 on core 0 and P2 on core 1, in parallel. *)
  (match Pmk_mc.active_partitions pmk with
  | [| Some a; Some b |] ->
    check Alcotest.bool "core0 = P1" true (Partition_id.equal a (pid 0));
    check Alcotest.bool "core1 = P2" true (Partition_id.equal b (pid 1))
  | _ -> Alcotest.fail "expected two active partitions");
  for _ = 1 to 40 do
    ignore (Pmk_mc.tick pmk)
  done;
  (* Core 1 switched to P3 at offset 40; core 0 unchanged. *)
  match Pmk_mc.active_partitions pmk with
  | [| Some a; Some b |] ->
    check Alcotest.bool "core0 still P1" true (Partition_id.equal a (pid 0));
    check Alcotest.bool "core1 = P3" true (Partition_id.equal b (pid 2))
  | _ -> Alcotest.fail "expected two active partitions"

let mc_broadcast_switch () =
  let pmk = Pmk_mc.create ~partition_count:3 [ duo; alt ] in
  ignore (Pmk_mc.tick pmk);
  Result.get_ok (Pmk_mc.request_schedule_switch pmk (sid 1));
  let switch_ticks = ref [] in
  for _ = 1 to 120 do
    let outcomes = Pmk_mc.tick pmk in
    Array.iteri
      (fun core o ->
        match o.Pmk.schedule_switched with
        | Some _ -> switch_ticks := (core, Pmk_mc.ticks pmk) :: !switch_ticks
        | None -> ())
      outcomes
  done;
  (* Both cores switch at the same MTF boundary. *)
  check
    Alcotest.(list (pair int int))
    "synchronized" [ (0, 100); (1, 100) ]
    (List.sort compare !switch_ticks);
  check Alcotest.bool "current is alt" true
    (Schedule_id.equal (Pmk_mc.current_schedule pmk) (sid 1));
  (* Under alt, core 1 starts with P3. *)
  match Pmk_mc.active_partitions pmk with
  | [| _; Some b |] ->
    (* At tick 120, offset 20 of alt: P3 owns [0,40) of core 1. *)
    check Alcotest.bool "core1 = P3 under alt" true
      (Partition_id.equal b (pid 2))
  | _ -> Alcotest.fail "expected active partition on core 1"

let mc_rejects_invalid () =
  let bad =
    Multicore.make ~id:(sid 0) ~name:"bad" ~mtf:100
      ~requirements:[ q (pid 0) 100 50 ]
      [ [ w (pid 0) 0 50 ]; [ w (pid 0) 0 50 ] ]
  in
  check Alcotest.bool "raises" true
    (try
       ignore (Pmk_mc.create ~partition_count:1 [ bad ]);
       false
     with Invalid_argument _ -> true)

let suite =
  [ Alcotest.test_case "valid tables" `Quick valid_tables;
    Alcotest.test_case "parallel self-overlap detected" `Quick
      self_overlap_detected;
    Alcotest.test_case "per-core overlap detected" `Quick
      per_core_overlap_detected;
    Alcotest.test_case "cross-core supply" `Quick cross_core_supply_counts;
    Alcotest.test_case "core view projection" `Quick core_view_projection;
    Alcotest.test_case "utilization across cores" `Quick
      utilization_across_cores;
    Alcotest.test_case "pmk_mc: parallel dispatch" `Quick mc_parallel_dispatch;
    Alcotest.test_case "pmk_mc: broadcast switch" `Quick mc_broadcast_switch;
    Alcotest.test_case "pmk_mc: rejects invalid tables" `Quick
      mc_rejects_invalid ]

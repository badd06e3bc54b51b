(* The event path: the chunked trace against a plain list model, the
   structured-event sink's ring, and the allocation budget of recording
   (nothing beyond the event's own payload) and of the kernel's quiescence
   probe. *)

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

(* --- Event sink ------------------------------------------------------------ *)

let payloads sink =
  List.map (fun e -> e.Air_obs.Event.payload) (Air_obs.Event.recent sink)

let event_sink_empty () =
  let sink = Air_obs.Event.create () in
  check Alcotest.(list int) "recent before any record" [] (payloads sink);
  check Alcotest.int "total" 0 (Air_obs.Event.total sink);
  check Alcotest.(list (pair string int)) "counts" []
    (Air_obs.Event.counts sink)

let event_sink_capacity_one () =
  let sink = Air_obs.Event.create ~capacity:1 () in
  for i = 1 to 5 do Air_obs.Event.record sink ~time:(10 * i) ~kind:"k" i done;
  match Air_obs.Event.recent sink with
  | [ e ] ->
    check Alcotest.int "payload" 5 e.Air_obs.Event.payload;
    check Alcotest.int "time" 50 e.Air_obs.Event.time;
    check Alcotest.string "kind" "k" e.Air_obs.Event.kind;
    check Alcotest.int "count" 5 (Air_obs.Event.count sink "k")
  | l -> Alcotest.failf "%d entries retained, expected 1" (List.length l)

let event_sink_wraps () =
  let sink = Air_obs.Event.create ~capacity:7 () in
  let kinds = [| "a"; "b"; "c" |] in
  for i = 0 to 999 do
    Air_obs.Event.record sink ~time:i ~kind:kinds.(i mod 3) i
  done;
  check Alcotest.(list int) "last seven, oldest first"
    (List.init 7 (fun k -> 993 + k))
    (payloads sink);
  check Alcotest.(list (pair int string)) "times and kinds travel together"
    (List.init 7 (fun k -> (993 + k, kinds.((993 + k) mod 3))))
    (List.map
       (fun e -> (e.Air_obs.Event.time, e.Air_obs.Event.kind))
       (Air_obs.Event.recent sink));
  check Alcotest.int "total" 1000 (Air_obs.Event.total sink);
  check Alcotest.(list (pair string int)) "counts never decay"
    [ ("a", 334); ("b", 333); ("c", 333) ]
    (Air_obs.Event.counts sink)

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

let event_record_allocates_nothing () =
  let payload = "already allocated" in
  let sink = Air_obs.Event.create () in
  Air_obs.Event.record sink ~time:0 ~kind:"seen" payload;
  check (Alcotest.float 0.) "seen kind, allocated payload" 0.
    (minor_words_of (fun () ->
         for i = 1 to 1000 do
           Air_obs.Event.record sink ~time:i ~kind:"seen" payload
         done));
  check Alcotest.int "counted" 1001 (Air_obs.Event.count sink "seen")

let has_schedulable_allocates_nothing () =
  let s = Air_workload.Satellite.make () in
  Air.System.run s ~ticks:100;
  let kernel = Air.System.kernel_of s (Air_model.Ident.Partition_id.make 0) in
  check (Alcotest.float 0.) "quiescence probe" 0.
    (minor_words_of (fun () ->
         for _ = 1 to 1000 do
           ignore (Air_pos.Kernel.has_schedulable kernel)
         done))

let suite =
  [ qcheck trace_matches_list_model;
    Alcotest.test_case "trace: get out of range" `Quick trace_get_out_of_range;
    Alcotest.test_case "event sink: recent before first record" `Quick
      event_sink_empty;
    Alcotest.test_case "event sink: capacity one" `Quick
      event_sink_capacity_one;
    Alcotest.test_case "event sink: many wrap-arounds" `Quick event_sink_wraps;
    Alcotest.test_case "alloc: Trace.record" `Quick
      trace_record_allocates_nothing;
    Alcotest.test_case "alloc: Obs.Event.record" `Quick
      event_record_allocates_nothing;
    Alcotest.test_case "alloc: Kernel.has_schedulable" `Quick
      has_schedulable_allocates_nothing ]

(* Tests for the configuration language: s-expression parsing/printing and
   the system loader. *)

open Air_config

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- Sexp ----------------------------------------------------------------- *)

let parse_basics () =
  (match Sexp.parse_one "(a b (c d) \"e f\")" with
  | Ok (Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b"; Sexp.List [ Sexp.Atom "c"; Sexp.Atom "d" ]; Sexp.Atom "e f" ]) ->
    ()
  | Ok s -> Alcotest.failf "unexpected parse: %s" (Sexp.to_string s)
  | Error e -> Alcotest.failf "parse error: %a" Sexp.pp_error e);
  (match Sexp.parse "a (b) ; comment\n c" with
  | Ok [ Sexp.Atom "a"; Sexp.List [ Sexp.Atom "b" ]; Sexp.Atom "c" ] -> ()
  | _ -> Alcotest.fail "toplevel parse")

let parse_strings_and_escapes () =
  match Sexp.parse_one {|"line\nbreak \"quoted\" back\\slash"|} with
  | Ok (Sexp.Atom s) ->
    check Alcotest.string "unescaped" "line\nbreak \"quoted\" back\\slash" s
  | _ -> Alcotest.fail "string parse"

let parse_errors_have_positions () =
  (match Sexp.parse_one "(a (b)" with
  | Error e -> check Alcotest.bool "line 1" true (e.Sexp.position.Sexp.line = 1)
  | Ok _ -> Alcotest.fail "expected error");
  (match Sexp.parse_one "(a\n))" with
  | Error e -> check Alcotest.int "line 2" 2 e.Sexp.position.Sexp.line
  | Ok _ -> Alcotest.fail "expected error");
  match Sexp.parse_one "\"unterminated" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let sexp_gen =
  let open QCheck.Gen in
  let atom_gen =
    oneof
      [ map (fun n -> Sexp.Atom (string_of_int n)) small_nat;
        oneofl
          [ Sexp.Atom "word"; Sexp.Atom "two words"; Sexp.Atom "with\"quote";
            Sexp.Atom ""; Sexp.Atom "tab\there" ] ]
  in
  sized
    (fix (fun self n ->
         if n <= 1 then atom_gen
         else
           frequency
             [ (2, atom_gen);
               (3, map (fun l -> Sexp.List l) (list_size (int_range 0 4) (self (n / 2)))) ]))

let qcheck_roundtrip =
  QCheck.Test.make ~name:"sexp print/parse roundtrip" ~count:300
    (QCheck.make sexp_gen) (fun s ->
      match Sexp.parse_one (Sexp.to_string s) with
      | Ok s' -> s = s'
      | Error _ -> false)

(* --- Decode ---------------------------------------------------------------- *)

let decode_fields () =
  let open Decode in
  let input =
    match Sexp.parse "(name X) (count 4)" with Ok l -> l | Error _ -> []
  in
  (match fields_of ~context:"t" input with
  | Ok f ->
    check Alcotest.bool "required" true (required f "name" (one atom) = Ok "X");
    check Alcotest.bool "int" true (required f "count" (one int) = Ok 4);
    check Alcotest.bool "missing" true (Result.is_error (required f "nope" (one atom)));
    check Alcotest.bool "optional missing" true
      (optional f "nope" (one atom) = Ok None);
    check Alcotest.bool "unknown rejected" true
      (Result.is_error (assert_no_extra f ~known:[ "name" ]))
  | Error e -> Alcotest.fail e);
  (* Duplicate fields rejected. *)
  match Sexp.parse "(a 1) (a 2)" with
  | Ok l -> check Alcotest.bool "dup" true (Result.is_error (fields_of ~context:"t" l))
  | Error _ -> Alcotest.fail "parse"

let decode_time_values () =
  let open Decode in
  check Alcotest.bool "ticks" true (time (Sexp.Atom "120") = Ok 120);
  check Alcotest.bool "infinite" true
    (time (Sexp.Atom "infinite") = Ok Air_sim.Time.infinity);
  check Alcotest.bool "poll" true (timeout (Sexp.Atom "poll") = Ok 0);
  check Alcotest.bool "negative rejected" true
    (Result.is_error (time (Sexp.Atom "-3")))

(* --- Loader ----------------------------------------------------------------- *)

let full_doc = {|
; A two-partition system exercising most of the grammar.
(air-system
  (partitions
    (partition (name CTRL) (kind system) (deadline-store avl-tree)
      (processes
        (process (name loop) (period 100) (capacity 100) (wcet 30) (priority 5)
          (script (compute 30) (log "tick") (periodic-wait)))
        (process (name fallback) (period (sporadic 500)) (autostart false))))
    (partition (name GUEST) (policy (round-robin 3))
      (processes
        (process (name busy) (script (compute 1000000)))
        (process (name chat)
          (script (send-queuing OUT "hello") (timed-wait 50))))))
  (schedules
    (schedule (name day) (mtf 200)
      (requirements (req (partition CTRL) (cycle 100) (duration 40))
                    (req (partition GUEST) (cycle 200) (duration 100)))
      (windows (window (partition CTRL) (offset 0) (duration 40))
               (window (partition GUEST) (offset 40) (duration 100))
               (window (partition CTRL) (offset 140) (duration 40))))
    (schedule (name night) (mtf 200)
      (requirements (req (partition CTRL) (cycle 100) (duration 40)))
      (change-actions (CTRL warm-restart))
      (windows (window (partition CTRL) (offset 0) (duration 40))
               (window (partition CTRL) (offset 100) (duration 40)))))
  (ports
    (queuing-port (name OUT) (partition GUEST) (direction source) (depth 4) (max-size 32))
    (queuing-port (name IN) (partition CTRL) (direction destination) (depth 4) (max-size 32)))
  (channels (channel (source OUT) (destinations IN)))
  (hm
    (process-errors (CTRL deadline-missed stop-process)
                    (GUEST application-error (log-then 3 restart-process)))
    (partition-errors (GUEST memory-violation cold-restart))
    (module-errors (power-failure shutdown))))
|}

let loader_full_document () =
  match Loader.load full_doc with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
    let s = Air.System.create cfg in
    Air.System.run s ~ticks:600;
    check Alcotest.bool "runs" true (Air.System.halted s = None);
    check Alcotest.int "two partitions" 2 (Air.System.partition_count s);
    (* Traffic flowed through the declared channel. *)
    let stats = Air_ipc.Router.stats (Air.System.router s) in
    check Alcotest.bool "messages" true (stats.Air_ipc.Router.messages_sent > 0)

let loader_resolves_names () =
  match Loader.load full_doc with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
    (match cfg.Air.System.schedules with
    | [ day; night ] ->
      check Alcotest.string "day" "day" day.Air_model.Schedule.name;
      check Alcotest.bool "night change action" true
        (Air_model.Schedule.change_action_for night
           (Air_model.Ident.Partition_id.make 0)
         = Air_model.Schedule.Warm_restart_partition)
    | _ -> Alcotest.fail "two schedules");
    check Alcotest.int "partitions" 2 (List.length cfg.Air.System.partitions)

let loader_rejects_bad_docs () =
  let cases =
    [ ("unknown partition in window",
       {|(air-system
          (partitions (partition (name A) (processes)))
          (schedules (schedule (name s) (mtf 10)
            (requirements (req (partition NOPE) (cycle 10) (duration 1)))
            (windows))))|});
      ("unknown action",
       {|(air-system
          (partitions (partition (name A)
            (processes (process (name p) (script (explode))))))
          (schedules (schedule (name s) (mtf 10)
            (requirements (req (partition A) (cycle 10) (duration 1)))
            (windows (window (partition A) (offset 0) (duration 1))))))|});
      ("unknown field",
       {|(air-system (warp-drive on)
          (partitions (partition (name A) (processes)))
          (schedules))|});
      ("unknown schedule in request",
       {|(air-system
          (partitions (partition (name A)
            (processes (process (name p) (script (request-schedule ghost))))))
          (schedules (schedule (name s) (mtf 10)
            (requirements (req (partition A) (cycle 10) (duration 1)))
            (windows (window (partition A) (offset 0) (duration 1))))))|}) ]
  in
  List.iter
    (fun (name, doc) ->
      check Alcotest.bool name true (Result.is_error (Loader.load doc)))
    cases

(* Every (air-system …) document of the examples, the full grammar
   document, and that document on two cores with causal tracing. *)
let roundtrip_docs () =
  let dir = "../examples/configs" in
  let examples =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun file ->
           let text =
             In_channel.with_open_text (Filename.concat dir file)
               In_channel.input_all
           in
           match Sexp.parse_one text with
           | Ok (Sexp.List (Sexp.Atom "air-system" :: _)) -> Some (file, text)
           | Ok _ | Error _ -> None)
  in
  let multicore =
    String.sub full_doc 0 (String.rindex full_doc ')')
    ^ " (cores 2) (causal (retention 64)))"
  in
  ("full_doc", full_doc) :: ("full_doc, cores 2, causal", multicore) :: examples

let load_or_fail name doc =
  match Loader.load doc with
  | Ok cfg -> cfg
  | Error e -> Alcotest.failf "%s: %s" name e

let roundtrip_fixpoint () =
  (* decode → encode → decode → encode must be a fixpoint. *)
  List.iter
    (fun (name, doc) ->
      let cfg = load_or_fail name doc in
      let doc1 = Encode.to_string cfg in
      let cfg' = load_or_fail (name ^ " re-load") doc1 in
      let doc2 = Encode.to_string cfg' in
      check Alcotest.string ("fixpoint: " ^ name) doc1 doc2)
    (roundtrip_docs ())

let roundtrip_preserves_behaviour () =
  let run cfg =
    let s = Air.System.create cfg in
    Air.System.run s ~ticks:800;
    ( List.length (Air.System.violations s),
      Air_sim.Trace.count
        (fun ev ->
          match ev with
          | Air_model.Event.Application_output _ -> true
          | _ -> false)
        (Air.System.trace s) )
  in
  let trace cfg =
    let s = Air.System.create cfg in
    Air.System.run s ~ticks:4000;
    Air_sim.Trace.to_list (Air.System.trace s)
  in
  let capacity cfg = Option.map Air_obs.Causal.capacity cfg.Air.System.causal in
  List.iter
    (fun (name, doc) ->
      let cfg = load_or_fail name doc in
      let cfg' = load_or_fail (name ^ " re-load") (Encode.to_string cfg) in
      check
        (Alcotest.pair Alcotest.int Alcotest.int)
        ("same observable behaviour: " ^ name) (run cfg) (run cfg');
      check Alcotest.(option int) ("cores: " ^ name) cfg.Air.System.cores
        cfg'.Air.System.cores;
      check Alcotest.(option int) ("causal capacity: " ^ name) (capacity cfg)
        (capacity cfg');
      check Alcotest.bool ("same trace: " ^ name) true (trace cfg = trace cfg'))
    (roundtrip_docs ());
  let cfg = load_or_fail "multicore" (List.assoc "full_doc, cores 2, causal" (roundtrip_docs ())) in
  check Alcotest.(option int) "cores decoded" (Some 2) cfg.Air.System.cores;
  check Alcotest.(option int) "causal decoded" (Some 64) (capacity cfg)

let satellite_config_roundtrips () =
  (* The programmatically built prototype survives encode → load. *)
  let cfg = Air_workload.Satellite.config () in
  let doc = Encode.to_string cfg in
  match Loader.load doc with
  | Error e -> Alcotest.failf "load of encoded satellite failed: %s" e
  | Ok cfg' ->
    check Alcotest.string "fixpoint" doc (Encode.to_string cfg');
    let s = Air.System.create cfg' in
    Air.System.run_mtfs s 2;
    check Alcotest.int "clean run" 0 (List.length (Air.System.violations s))

(* A "*" in the partition position of an hm entry decodes to a wildcard
   default, and the wildcard survives the encode → load round-trip. *)
let hm_wildcard_roundtrips () =
  let doc =
    {|(air-system
       (partitions (partition (name A)
         (processes (process (name p) (script (compute 5) (periodic-wait))
           (period 10) (capacity 10) (wcet 5) (priority 1)))))
       (schedules (schedule (name s) (mtf 10)
         (requirements (req (partition A) (cycle 10) (duration 10)))
         (windows (window (partition A) (offset 0) (duration 10)))))
       (hm
         (process-errors (* deadline-missed stop-process)
                         (A application-error restart-process))
         (partition-errors (* memory-violation warm-restart))))|}
  in
  match Loader.load doc with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
    let tables = cfg.Air.System.hm_tables in
    check Alcotest.int "one wildcard process default" 1
      (List.length tables.Air.Hm.process_defaults);
    check Alcotest.int "one specific process entry" 1
      (List.length tables.Air.Hm.process_actions);
    check Alcotest.int "one wildcard partition default" 1
      (List.length tables.Air.Hm.partition_defaults);
    (match Loader.load (Encode.to_string cfg) with
    | Error e -> Alcotest.failf "re-load failed: %s" e
    | Ok cfg' ->
      check Alcotest.bool "wildcards survive round-trip" true
        (cfg'.Air.System.hm_tables = tables))

(* Every integer atom of the example satellite set, one at a time, to 0,
   -1 and max_int: the loader returns, and a refused range names its
   field. *)
let int_mutations value doc =
  let rec go = function
    | Sexp.Atom a when Option.is_some (int_of_string_opt a) -> [ Sexp.Atom value ]
    | Sexp.Atom _ -> []
    | Sexp.List items ->
      List.concat
        (List.mapi
           (fun i item ->
             List.map
               (fun item' ->
                 Sexp.List (List.mapi (fun j x -> if j = i then item' else x) items))
               (go item))
           items)
  in
  go doc

let loader_never_raises_on_ranges () =
  let text =
    In_channel.with_open_text "../examples/configs/leo_satellite.air"
      In_channel.input_all
  in
  let doc =
    match Sexp.parse_one text with Ok d -> d | Error _ -> Alcotest.fail "parse"
  in
  let mutants =
    List.concat_map
      (fun v -> int_mutations v doc)
      [ "0"; "-1"; string_of_int max_int ]
  in
  check Alcotest.bool "mutants" true (List.length mutants > 300);
  List.iter
    (fun m ->
      let m = Sexp.to_string m in
      match Loader.load m with
      | Ok _ | Error _ -> ()
      | exception e -> Alcotest.failf "%s raised on\n%s" (Printexc.to_string e) m)
    mutants;
  let refused needle ~field =
    let i = Astring_contains.find text needle |> Option.get in
    let bad =
      String.sub text 0 i ^ field
      ^ String.sub text (i + String.length needle)
          (String.length text - i - String.length needle)
    in
    match Loader.load bad with
    | Ok _ -> Alcotest.failf "%s accepted" field
    | Error e ->
      check Alcotest.bool (field ^ " diagnostic: " ^ e) true
        (Astring_contains.contains e "must be positive")
  in
  refused "(mtf 2000)" ~field:"(mtf 0)";
  refused "(cycle 500)" ~field:"(cycle 0)";
  refused "(depth 8)" ~field:"(depth 0)";
  refused "(refresh 2000)" ~field:"(refresh 0)";
  refused "(max-size 128)" ~field:"(max-size 0)";
  refused "(offset 0) (duration 150)" ~field:"(offset 0) (duration 0)"

(* Tables that break eqs. (21)-(23) are refused by the loader with the
   schedule and the equation they break, not left to raise from
   [System.create]. *)
let loader_refuses_invalid_tables () =
  let text =
    In_channel.with_open_text "../examples/configs/leo_satellite.air"
      In_channel.input_all
  in
  let refused needle ~by ~eq =
    let i = Astring_contains.find text needle |> Option.get in
    let bad =
      String.sub text 0 i ^ by
      ^ String.sub text (i + String.length needle)
          (String.length text - i - String.length needle)
    in
    match Loader.load bad with
    | Ok _ -> Alcotest.failf "%s accepted" by
    | Error e ->
      check Alcotest.bool (by ^ " diagnostic: " ^ e) true
        (Astring_contains.contains e "air-system.schedules: schedule nominal:"
        && Astring_contains.contains e eq)
  in
  (* Nominal's first CAMERA window moved onto GNC's. *)
  refused "(window (partition CAMERA) (offset 150)"
    ~by:"(window (partition CAMERA) (offset 100)" ~eq:"eq.(21)";
  refused "(mtf 2000)" ~by:"(mtf 3000)" ~eq:"eq.(22)";
  refused "(req (partition CAMERA) (cycle 2000) (duration 700))"
    ~by:"(req (partition CAMERA) (cycle 2000) (duration 1100))" ~eq:"eq.(23"

let loader_syntax_error_reported () =
  match Loader.load "(air-system (partitions" with
  | Error e -> check Alcotest.bool "mentions position" true
      (Astring_contains.contains e "line")
  | Ok _ -> Alcotest.fail "expected syntax error"

let suite =
  [ Alcotest.test_case "sexp: parse basics" `Quick parse_basics;
    Alcotest.test_case "sexp: strings and escapes" `Quick
      parse_strings_and_escapes;
    Alcotest.test_case "sexp: errors carry positions" `Quick
      parse_errors_have_positions;
    qcheck qcheck_roundtrip;
    Alcotest.test_case "decode: fields" `Quick decode_fields;
    Alcotest.test_case "decode: time values" `Quick decode_time_values;
    Alcotest.test_case "loader: full document" `Quick loader_full_document;
    Alcotest.test_case "loader: resolves names" `Quick loader_resolves_names;
    Alcotest.test_case "loader: rejects bad documents" `Quick
      loader_rejects_bad_docs;
    Alcotest.test_case "encode/load round-trip fixpoint" `Quick
      roundtrip_fixpoint;
    Alcotest.test_case "round-trip preserves behaviour" `Quick
      roundtrip_preserves_behaviour;
    Alcotest.test_case "satellite config round-trips" `Quick
      satellite_config_roundtrips;
    Alcotest.test_case "hm wildcard round-trips" `Quick
      hm_wildcard_roundtrips;
    Alcotest.test_case "loader: syntax errors reported" `Quick
      loader_syntax_error_reported;
    Alcotest.test_case "loader: ranges never raise" `Quick
      loader_never_raises_on_ranges;
    Alcotest.test_case "loader: refuses tables breaking eqs. (21)-(23)"
      `Quick loader_refuses_invalid_tables ]

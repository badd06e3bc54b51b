(* Standalone validator for the profile-smoke make target: given a
   profile JSON file `air_run --profile-json` produced, check that it is
   well-formed air-profile/2 JSON, that the step/batch/skip tick buckets
   partition the simulated horizon exactly, that the horizon matches the
   tick budget the smoke run requested, and that probe accounting is
   consistent (total = successful + wasted). Exits nonzero on the first
   problem. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  try In_channel.with_open_text path In_channel.input_all
  with Sys_error m -> fail "%s" m

(* Pull the integer following ["field":] — enough structure awareness for
   a document our own writer produced and Json_lint already vetted. *)
let int_field text path name =
  let needle = Printf.sprintf "\"%s\":" name in
  match Astring_contains.find text needle with
  | None -> fail "%s: missing field %s" path name
  | Some at ->
    let start = at + String.length needle in
    let stop = ref start in
    while
      !stop < String.length text
      && (match text.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
    do
      incr stop
    done;
    if !stop = start then fail "%s: field %s is not an integer" path name;
    int_of_string (String.sub text start (!stop - start))

let () =
  let path, expected_ticks =
    match Sys.argv with
    | [| _; path |] -> (path, None)
    | [| _; path; ticks |] -> (path, Some (int_of_string ticks))
    | _ -> fail "usage: %s PROFILE.json [EXPECTED_TICKS]" Sys.argv.(0)
  in
  let text = read_file path in
  (match Json_lint.check text with
  | Ok () -> ()
  | Error e -> fail "%s: invalid JSON: %s" path e);
  if not (Astring_contains.contains text "\"schema\":\"air-profile/2\"")
  then fail "%s: missing air-profile/2 schema marker" path;
  if Astring_contains.contains text "\"density\""
  then fail "%s: air-profile/2 has no density object" path;
  let simulated = int_field text path "simulated" in
  (match expected_ticks with
  | Some t when t <> simulated ->
    fail "%s: simulated %d ticks, run requested %d" path simulated t
  | _ -> ());
  (* The buckets object leads with step/batch/skip in writer order, so
     the first "ticks" fields are theirs; "spans" only occurs in skip. *)
  let step = int_field text path "ticks" in
  let after_step =
    match Astring_contains.find text "\"batch\":" with
    | None -> fail "%s: missing batch bucket" path
    | Some at -> String.sub text at (String.length text - at)
  in
  let batch = int_field after_step path "ticks" in
  let after_batch =
    match Astring_contains.find text "\"skip\":" with
    | None -> fail "%s: missing skip bucket" path
    | Some at -> String.sub text at (String.length text - at)
  in
  let skip = int_field after_batch path "ticks" in
  if step + batch + skip <> simulated then
    fail "%s: buckets %d+%d+%d = %d do not partition simulated %d" path step
      batch skip (step + batch + skip) simulated;
  let total = int_field text path "total" in
  let successful = int_field text path "successful" in
  let wasted = int_field text path "wasted" in
  if successful + wasted <> total then
    fail "%s: probes %d+%d do not sum to total %d" path successful wasted
      total;
  Printf.printf
    "profile smoke OK: %d ticks = %d stepped + %d batched + %d skipped, \
     %d probes\n"
    simulated step batch skip total

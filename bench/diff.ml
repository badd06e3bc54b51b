(* Compare two air-bench/1 JSON artifacts (as written by
   `bench/main.exe --json`) and flag regressions.

   Usage: diff.exe OLD.json NEW.json

   Every row present in both files is compared by its ns/run estimate;
   a row counts as a regression when it is slower than its group's
   threshold ratio AND slower by more than an absolute noise floor (very
   short rows jitter by whole nanoseconds between runs). Rows present in
   only one file — renamed, added or retired benchmarks — are reported
   but never fatal, and rows whose OLS estimate was null are skipped.

   Exit status: 0 when no row regresses, 1 on regression, 2 on usage or
   parse errors. *)

(* --- thresholds ---------------------------------------------------------- *)

(* Per-group regression ratios (new/old). The micro groups measure rows
   in the 1–100 ns range where allocator and cache placement move results
   by tens of percent between otherwise identical runs; the whole-horizon
   groups are longer and steadier, so they get a tighter bound. *)
let threshold_for name =
  let group =
    match String.index_opt name '/' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match group with
  | "scheduler" | "deadline" | "pal" | "ipc" | "mmu" | "causal"
  | "contention" | "obs" -> 2.0
  | "system" | "recorder" | "telemetry" -> 1.75
  | "exec" | "faults" | "analysis" | "extensions" | "profiler" -> 1.5
  (* Whole-horizon rows, but the domain rows contend for whatever cores
     the CI runner actually has, so they jitter more than exec/*. *)
  | "fleet" -> 2.0
  | _ -> 1.5

(* Absolute slack in ns/run below which a slowdown is indistinguishable
   from scheduling noise regardless of the ratio. *)
let noise_floor_ns = 10.0

(* --- air-bench/1 row extraction ------------------------------------------ *)

(* The artifact is produced by our own writer, one result object per
   line: [{"name": "...", "ns_per_run": 123.456},]. A full JSON parser
   buys nothing here; extract the two fields line by line and reject
   files that do not carry the air-bench/1 schema marker. *)

let extract_string line ~key =
  let marker = Printf.sprintf "\"%s\": \"" key in
  match
    let mlen = String.length marker in
    let rec find i =
      if i + mlen > String.length line then None
      else if String.sub line i mlen = marker then Some (i + mlen)
      else find (i + 1)
    in
    find 0
  with
  | None -> None
  | Some start ->
    (match String.index_from_opt line start '"' with
    | None -> None
    | Some stop -> Some (String.sub line start (stop - start)))

let extract_number line ~key =
  let marker = Printf.sprintf "\"%s\": " key in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length line then None
    else if String.sub line i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < String.length line
      &&
      match line.[!stop] with
      | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
      | _ -> false
    do
      incr stop
    done;
    if !stop = start then None
    else float_of_string_opt (String.sub line start (!stop - start))

let parse_rows path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let is_bench_artifact = ref false in
  let rows = ref [] in
  List.iter
    (fun line ->
      (match extract_string line ~key:"schema" with
      | Some "air-bench/1" -> is_bench_artifact := true
      | Some _ | None -> ());
      match extract_string line ~key:"name" with
      | None -> ()
      | Some name ->
        (match extract_number line ~key:"ns_per_run" with
        | Some est -> rows := (name, est) :: !rows
        | None -> () (* null estimate: OLS failed, nothing to compare *)))
    (String.split_on_char '\n' text);
  if not !is_bench_artifact then
    failwith (path ^ ": not an air-bench/1 artifact");
  List.rev !rows

(* --- comparison ---------------------------------------------------------- *)

type verdict = { name : string; old_ns : float; new_ns : float; ratio : float }

let () =
  let old_path, new_path =
    match Sys.argv with
    | [| _; o; n |] -> (o, n)
    | _ ->
      prerr_endline "usage: diff.exe OLD.json NEW.json";
      exit 2
  in
  let old_rows, new_rows =
    try (parse_rows old_path, parse_rows new_path)
    with Sys_error msg | Failure msg ->
      prerr_endline msg;
      exit 2
  in
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun (name, est) -> Hashtbl.replace old_tbl name est) old_rows;
  let regressions = ref [] in
  let improvements = ref 0 in
  let compared = ref 0 in
  let added = ref [] in
  List.iter
    (fun (name, new_ns) ->
      match Hashtbl.find_opt old_tbl name with
      | None -> added := name :: !added
      | Some old_ns ->
        Hashtbl.remove old_tbl name;
        incr compared;
        let ratio = if old_ns > 0.0 then new_ns /. old_ns else 1.0 in
        let threshold = threshold_for name in
        if ratio > threshold && new_ns -. old_ns > noise_floor_ns then
          regressions := { name; old_ns; new_ns; ratio } :: !regressions
        else if ratio < 1.0 /. threshold then incr improvements)
    new_rows;
  let removed = Hashtbl.fold (fun name _ acc -> name :: acc) old_tbl [] in
  List.iter
    (fun { name; old_ns; new_ns; ratio } ->
      Printf.printf "REGRESSION  %-52s %10.1f -> %10.1f ns/run (%.2fx > %.2fx)\n"
        name old_ns new_ns ratio (threshold_for name))
    (List.rev !regressions);
  List.iter (fun name -> Printf.printf "new row     %s\n" name)
    (List.rev !added);
  List.iter (fun name -> Printf.printf "retired row %s\n" name)
    (List.sort compare removed);
  Printf.printf
    "bench-diff: %d rows compared, %d regression(s), %d improvement(s), %d new, %d retired\n"
    !compared
    (List.length !regressions)
    !improvements (List.length !added) (List.length removed);
  if !regressions <> [] then exit 1

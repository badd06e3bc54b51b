(* Self-profiler for the skip-ahead executive: attributes wall-clock time
   and tick counts to the engine's execution mechanisms — individually
   stepped ticks, whole Per_tick-mode runs, collapsed quiet spans and the
   probes that find them. Purely observational: the engine behaves
   identically with or without one attached (the property tests pin
   bit-identical traces), it just pays two clock reads around each
   instrumented operation while profiling. *)

type t = {
  (* Ticks executed one at a time through the per-tick path, with engine
     bookkeeping (quiescence check, probe decision) between them. *)
  mutable step_ticks : int;
  mutable step_calls : int;
  mutable step_seconds : float;
  (* Ticks executed through [System.run] with no engine bookkeeping in
     between: whole Per_tick-mode advances. *)
  mutable batch_ticks : int;
  mutable batch_calls : int;
  mutable batch_seconds : float;
  (* Ticks collapsed into O(1) batch clock updates by successful probes. *)
  mutable skip_ticks : int;
  mutable skip_spans : int;
  (* Probe accounting: a probe that skips nothing was pure overhead. *)
  mutable probes_successful : int;
  mutable probes_wasted : int;
  mutable probe_seconds : float;
  mutable wasted_probe_seconds : float;
}

let create () =
  { step_ticks = 0;
    step_calls = 0;
    step_seconds = 0.0;
    batch_ticks = 0;
    batch_calls = 0;
    batch_seconds = 0.0;
    skip_ticks = 0;
    skip_spans = 0;
    probes_successful = 0;
    probes_wasted = 0;
    probe_seconds = 0.0;
    wasted_probe_seconds = 0.0 }

let timestamp () = Unix.gettimeofday ()

let note_step t ~seconds =
  t.step_ticks <- t.step_ticks + 1;
  t.step_calls <- t.step_calls + 1;
  t.step_seconds <- t.step_seconds +. seconds

let note_batch t ~ticks ~seconds =
  t.batch_ticks <- t.batch_ticks + ticks;
  t.batch_calls <- t.batch_calls + 1;
  t.batch_seconds <- t.batch_seconds +. seconds

let note_probe t ~skipped ~seconds =
  t.probe_seconds <- t.probe_seconds +. seconds;
  if skipped > 0 then begin
    t.probes_successful <- t.probes_successful + 1;
    t.skip_spans <- t.skip_spans + 1;
    t.skip_ticks <- t.skip_ticks + skipped
  end
  else begin
    t.probes_wasted <- t.probes_wasted + 1;
    t.wasted_probe_seconds <- t.wasted_probe_seconds +. seconds
  end

let simulated t = t.step_ticks + t.batch_ticks + t.skip_ticks
let probes t = t.probes_successful + t.probes_wasted

(* --- Reports ------------------------------------------------------------- *)

let ms s = s *. 1e3

let ns_per s ticks =
  if ticks = 0 then 0.0 else s *. 1e9 /. float_of_int ticks

let to_text t =
  let buf = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  let wall =
    t.step_seconds +. t.batch_seconds +. t.probe_seconds
  in
  line "engine profile: %d simulated ticks, %.3f ms instrumented wall clock"
    (simulated t) (ms wall);
  line "  per-tick steps  : %8d ticks            %10.3f ms  (%6.1f ns/tick)"
    t.step_ticks (ms t.step_seconds)
    (ns_per t.step_seconds t.step_ticks);
  line "  Per_tick runs   : %8d ticks %6d runs %10.3f ms  (%6.1f ns/tick)"
    t.batch_ticks t.batch_calls (ms t.batch_seconds)
    (ns_per t.batch_seconds t.batch_ticks);
  line "  skipped spans   : %8d ticks %6d spans          -  (O(1) each)"
    t.skip_ticks t.skip_spans;
  line "  probes          : %8d total %6d paid off, %d wasted (%.3f ms, %.3f ms wasted)"
    (probes t) t.probes_successful t.probes_wasted (ms t.probe_seconds)
    (ms t.wasted_probe_seconds);
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\":\"air-profile/2\",\"simulated\":%d,\"buckets\":{"
       (simulated t));
  Buffer.add_string buf
    (Printf.sprintf
       "\"step\":{\"ticks\":%d,\"calls\":%d,\"seconds\":%.9f},"
       t.step_ticks t.step_calls t.step_seconds);
  Buffer.add_string buf
    (Printf.sprintf
       "\"batch\":{\"ticks\":%d,\"runs\":%d,\"seconds\":%.9f},"
       t.batch_ticks t.batch_calls t.batch_seconds);
  Buffer.add_string buf
    (Printf.sprintf "\"skip\":{\"ticks\":%d,\"spans\":%d}},"
       t.skip_ticks t.skip_spans);
  Buffer.add_string buf
    (Printf.sprintf
       "\"probes\":{\"total\":%d,\"successful\":%d,\"wasted\":%d,\
        \"seconds\":%.9f,\"wasted_seconds\":%.9f}}"
       (probes t) t.probes_successful t.probes_wasted t.probe_seconds
       t.wasted_probe_seconds);
  Buffer.contents buf

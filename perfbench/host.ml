(* Host-speed calibration.

   The benchmark's host is a shared virtual machine whose speed drifts by
   a fifth and more over tens of seconds under co-tenant load; CPU time
   drifts with wall time, so no clock choice removes it. The timed runs
   are therefore scaled to a reference host speed: right before and after
   every repetition perfbench times [sample], a fixed integer kernel
   (dependent loads within an L1-resident table plus arithmetic) that
   does not depend on any code of the repository, and converts the
   repetition's host seconds to reference seconds by the ratio
   [reference_s / sample]. On this kind of host the kernel's time tracks
   the simulator's own slowdown closely (README: "Host noise"). *)

let table = Array.init 4096 (fun i -> (i * 7919) land 4095)

let kernel () =
  let m = ref 0 and j = ref 0 in
  for i = 1 to 600_000 do
    j := table.(!j);
    m := (!m * 31) + (i lxor !j) + if !m land 8 = 0 then 1 else 3
  done;
  ignore (Sys.opaque_identity !m)

(* Host seconds of three kernel runs. *)
let sample () =
  let t0 = Spans.now () in
  kernel ();
  kernel ();
  kernel ();
  Spans.now () -. t0

(* [sample] on the unloaded host the benchmark was defined on (its
   fastest observed value, rounded). *)
let reference_s = 3.2e-3

(* The factor that turns host seconds into reference seconds, from the
   samples taken before and after a measured interval. *)
let scale ~before ~after = reference_s /. ((before +. after) /. 2.)

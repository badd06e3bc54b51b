(* The benchmark's timer and in-memory span recorder.

   Every call perfbench makes into a layer goes through [span], which
   always returns the call's host-time duration. With a recorder attached
   (the traced run) it also keeps a span — name, start, end, parent — in
   memory; [to_json] writes them out when the run ends, with each span
   name's total and self time (duration minus the part covered by its
   child spans). *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

type t = {
  mutable spans : span list;  (* most recently ended first *)
  mutable stack : int list;   (* open span ids, innermost first *)
  mutable next : int;
}

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

(* Seconds on the host's monotonic clock. *)
let now () = float (now_ns ()) *. 1e-9
let create () = { spans = []; stack = []; next = 1 }

let span rec_ name f =
  match rec_ with
  | None ->
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  | Some t ->
    let id = t.next in
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.next <- id + 1;
    t.stack <- id :: t.stack;
    let t0 = now () and t1 = ref 0. in
    let r =
      Fun.protect
        ~finally:(fun () ->
          t1 := now ();
          t.stack <- List.tl t.stack;
          t.spans <- { id; parent; name; t0; t1 = !t1 } :: t.spans)
        f
    in
    (r, !t1 -. t0)

let by_start t = List.sort (fun a b -> compare a.id b.id) t.spans

(* Per span name: (calls, total seconds, self seconds), in order of first
   start. *)
let summary t =
  let spans = by_start t in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      Hashtbl.replace child s.parent
        (d +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      match Hashtbl.find_opt acc s.name with
      | None ->
        order := s.name :: !order;
        Hashtbl.replace acc s.name (1, d, self)
      | Some (n, tot, sf) ->
        Hashtbl.replace acc s.name (n + 1, tot +. d, sf +. self))
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find acc name)) !order

let to_json ~stamp t =
  let b = Buffer.create 4096 in
  let spans = by_start t in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0. in
  Buffer.add_string b "{\"schema\":\"air-perfbench-spans/1\",\"stamp\":";
  Buffer.add_string b stamp;
  Buffer.add_string b ",\"summary\":[";
  List.iteri
    (fun i (name, (calls, total, self)) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"name\":%S,\"calls\":%d,\"total_s\":%.9f,\"self_s\":%.9f}" name
        calls total self)
    (summary t);
  Buffer.add_string b "],\"spans\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_us\":%.3f,\
         \"end_us\":%.3f}"
        s.id s.parent s.name
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. origin) *. 1e6))
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Structured-event sink: a bounded ring of recent events plus per-kind
   occurrence counts.

   The sink is polymorphic in its payload so each layer can attach its own
   typed event (e.g. [Air_model.Event.t] at the system level) without the
   observability library depending on model types. The ring is three
   parallel arrays; recording stores into them and bumps the kind's count,
   and allocates nothing once the payload array exists and the kind has
   been seen. *)

type 'a entry = { time : int; kind : string; payload : 'a }

type 'a t = {
  times : int array;
  kinds : string array;
  mutable payloads : 'a array; (* [[||]] until the first record *)
  mutable next : int;
  mutable total : int;
  counts : (string, int) Hashtbl.t;
  mutable seen : string list; (* kinds in first-seen order, newest first *)
}

let default_capacity = 256

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Event.create: capacity must be positive";
  { times = Array.make capacity 0;
    kinds = Array.make capacity "";
    payloads = [||];
    next = 0;
    total = 0;
    counts = Hashtbl.create 32;
    seen = [] }

(* [find] with a handler rather than [find_opt], which allocates a [Some]
   on every event; [replace] of a present key updates its bucket in
   place. *)
let bump t kind =
  match Hashtbl.find t.counts kind with
  | n -> Hashtbl.replace t.counts kind (n + 1)
  | exception Not_found ->
    Hashtbl.add t.counts kind 1;
    t.seen <- kind :: t.seen

let record t ~time ~kind payload =
  let capacity = Array.length t.times in
  if t.total = 0 then t.payloads <- Array.make capacity payload;
  let i = t.next in
  t.times.(i) <- time;
  t.kinds.(i) <- kind;
  t.payloads.(i) <- payload;
  t.next <- (if i + 1 = capacity then 0 else i + 1);
  t.total <- t.total + 1;
  bump t kind

let total t = t.total

let count t kind = Option.value ~default:0 (Hashtbl.find_opt t.counts kind)

(* Per-kind totals, sorted by kind for stable reports. *)
let counts t =
  List.rev_map (fun kind -> (kind, Hashtbl.find t.counts kind)) t.seen
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Oldest-first list of the retained tail of the event stream. *)
let recent t =
  let capacity = Array.length t.times in
  let retained = min t.total capacity in
  let out = ref [] in
  for k = 1 to retained do
    let i = (t.next - k + capacity) mod capacity in
    out :=
      { time = t.times.(i); kind = t.kinds.(i); payload = t.payloads.(i) }
      :: !out
  done;
  !out

let pp_counts ppf t =
  List.iter
    (fun (kind, n) -> Format.fprintf ppf "%-32s %8d@." kind n)
    (counts t)

(* Chunked event log. The event with sequence number [s] (0 for the first
   ever recorded) lives at slot [s land (chunk_size - 1)] of chunk
   [s / chunk_size]. The live chunks sit in a circular table, oldest at
   [head]; the chunk being filled is also cached in [cur_times] and
   [cur_events] so [record] does no table arithmetic. *)

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type 'a t = {
  capacity : int; (* [max_int] when unbounded *)
  mutable times : int array array; (* circular chunk table *)
  mutable events : 'a array array;
  mutable head : int; (* table index of the oldest live chunk *)
  mutable chunks : int; (* live chunks *)
  mutable base : int; (* chunk number of the oldest live chunk *)
  mutable cur_times : int array;
  mutable cur_events : 'a array;
  mutable total : int;
  mutable drop_at : int;
      (* [total] at which every slot of the oldest chunk has been
         overwritten; [max_int] when unbounded. *)
}

let drop_threshold capacity base =
  let retained_from = (base + 1) * chunk_size in
  if capacity > max_int - retained_from then max_int
  else retained_from + capacity

let create ?capacity () =
  let capacity =
    match capacity with
    | Some c when c <= 0 ->
      invalid_arg "Trace.create: capacity must be positive"
    | Some c -> c
    | None -> max_int
  in
  { capacity;
    times = [||];
    events = [||];
    head = 0;
    chunks = 0;
    base = 0;
    cur_times = [||];
    cur_events = [||];
    total = 0;
    drop_at = drop_threshold capacity 0 }

(* Unroll the circular table into one twice as large (at least 4). *)
let grow t =
  let len = Array.length t.times in
  let len' = max 4 (2 * len) in
  let unroll table empty =
    Array.init len' (fun i ->
        if i < t.chunks then table.((t.head + i) mod len) else empty)
  in
  t.times <- unroll t.times [||];
  t.events <- unroll t.events [||];
  t.head <- 0

(* Allocate the chunk that the event [ev] opens. The filler is [ev]
   itself, so no dummy value of type ['a] is needed. *)
let open_chunk t ev =
  if t.chunks = Array.length t.times then grow t;
  t.cur_times <- Array.make chunk_size 0;
  t.cur_events <- Array.make chunk_size ev;
  let i = (t.head + t.chunks) mod Array.length t.times in
  t.times.(i) <- t.cur_times;
  t.events.(i) <- t.cur_events;
  t.chunks <- t.chunks + 1

let drop_oldest t =
  t.times.(t.head) <- [||];
  t.events.(t.head) <- [||];
  t.head <- (t.head + 1) mod Array.length t.times;
  t.chunks <- t.chunks - 1;
  t.base <- t.base + 1;
  t.drop_at <- drop_threshold t.capacity t.base

let record t time ev =
  let slot = t.total land chunk_mask in
  if slot = 0 then open_chunk t ev;
  t.cur_times.(slot) <- time;
  t.cur_events.(slot) <- ev;
  t.total <- t.total + 1;
  if t.total >= t.drop_at then drop_oldest t

let total t = t.total
let length t = if t.total < t.capacity then t.total else t.capacity

(* Table index of the chunk holding sequence number [s]. *)
let chunk_of t s =
  ((s lsr chunk_bits) - t.base + t.head) mod Array.length t.times

let check_index t i name =
  if i < 0 || i >= length t then invalid_arg ("Trace." ^ name)

let time_at t i =
  check_index t i "time_at";
  let s = t.total - length t + i in
  t.times.(chunk_of t s).(s land chunk_mask)

let get t i =
  check_index t i "get";
  let s = t.total - length t + i in
  t.events.(chunk_of t s).(s land chunk_mask)

(* Sequence numbers [s, stop) of one chunk, then the next. *)
let rec fold_from f acc t s stop =
  if s >= stop then acc
  else begin
    let k = chunk_of t s in
    let times = t.times.(k) and events = t.events.(k) in
    let last = min stop ((s lor chunk_mask) + 1) in
    let acc = ref acc in
    for s = s to last - 1 do
      let j = s land chunk_mask in
      acc := f !acc times.(j) events.(j)
    done;
    fold_from f !acc t last stop
  end

let fold f acc t = fold_from f acc t (t.total - length t) t.total

let iter f t = fold (fun () time ev -> f time ev) () t

let to_list t =
  List.rev (fold (fun acc time ev -> (time, ev) :: acc) [] t)

let events t = List.rev (fold (fun acc _ ev -> ev :: acc) [] t)

let filter p t =
  List.rev
    (fold (fun acc time ev -> if p time ev then (time, ev) :: acc else acc)
       [] t)

let between t from until =
  filter (fun time _ -> Time.(from <= time) && Time.(time < until)) t

let count p t = fold (fun acc _ ev -> if p ev then acc + 1 else acc) 0 t

let find_first p t =
  let n = length t in
  let rec go i =
    if i >= n then None
    else
      let ev = get t i in
      if p ev then Some (time_at t i, ev) else go (i + 1)
  in
  go 0

let find_last p t =
  let rec go i =
    if i < 0 then None
    else
      let ev = get t i in
      if p ev then Some (time_at t i, ev) else go (i - 1)
  in
  go (length t - 1)

open Decode

type names = { partitions : string array; schedules : string array }

type ('s, 'a) t = {
  dec : names -> 's -> 'a Decode.t;
  enc : names -> 'a -> 's;
}

type 'a value = (Sexp.t, 'a) t
type 'a args = (Sexp.t list, 'a) t

(* --- Values -------------------------------------------------------------- *)

let leaf dec enc = { dec = (fun _ s -> dec s); enc = (fun _ v -> enc v) }
let int_atom n = Sexp.Atom (string_of_int n)
let atom = leaf Decode.atom (fun a -> Sexp.Atom a)
let int = leaf Decode.int int_atom
let bool = leaf Decode.bool (fun b -> Sexp.Atom (string_of_bool b))

let time_atom t =
  if Air_sim.Time.is_infinite t then Sexp.Atom "infinite" else int_atom t

let time = leaf Decode.time time_atom

let timeout =
  leaf Decode.timeout (fun t ->
      if t = Air_sim.Time.zero then Sexp.Atom "poll" else time_atom t)

let conv c dec enc =
  { dec = (fun n s -> let* v = c.dec n s in dec n v);
    enc = (fun n v -> c.enc n (enc v)) }

let map c inj proj = conv c (fun _ v -> Ok (inj v)) proj

let positive c =
  conv c (fun _ v -> if v > 0 then Ok v else error "must be positive") Fun.id

let index what names_of =
  { dec =
      (fun n s ->
        let* name = Decode.atom s in
        let a = names_of n in
        let rec go i =
          if i = Array.length a then error "unknown %s %s" what name
          else if String.equal a.(i) name then Ok i
          else go (i + 1)
        in
        go 0);
    enc =
      (fun n i ->
        let a = names_of n in
        if i < 0 || i >= Array.length a then
          invalid_arg (Printf.sprintf "Encode: %s index %d out of range" what i)
        else Sexp.Atom a.(i)) }

let partition_index = index "partition" (fun n -> n.partitions)
let schedule_index = index "schedule" (fun n -> n.schedules)

let wild w c =
  { dec =
      (fun n s ->
        match s with
        | Sexp.Atom a when String.equal a w -> Ok None
        | s ->
          let* v = c.dec n s in
          Ok (Some v));
    enc = (fun n -> function None -> Sexp.Atom w | Some v -> c.enc n v) }

let delay l =
  { dec = (fun n s -> (Lazy.force l).dec n s);
    enc = (fun n v -> (Lazy.force l).enc n v) }

(* --- Argument lists ------------------------------------------------------ *)

let one c =
  { dec =
      (fun n -> function
        | [ x ] -> c.dec n x
        | args -> error "expected one value, got %d" (List.length args));
    enc = (fun n v -> [ c.enc n v ]) }

let many c =
  { dec = (fun n args -> map_all (c.dec n) args);
    enc = (fun n l -> List.map (c.enc n) l) }

let indexed elem =
  { dec =
      (fun n args ->
        map_all
          (fun (i, s) -> (elem i).dec n s)
          (List.mapi (fun i s -> (i, s)) args));
    enc = (fun n l -> List.mapi (fun i v -> (elem i).enc n v) l) }

let nil =
  { dec =
      (fun _ -> function [] -> Ok () | _ -> error "too many arguments");
    enc = (fun _ () -> []) }

let ( ** ) c rest =
  { dec =
      (fun n -> function
        | x :: xs ->
          let* a = c.dec n x in
          let* b = rest.dec n xs in
          Ok (a, b)
        | [] -> error "missing argument");
    enc = (fun n (a, b) -> c.enc n a :: rest.enc n b) }

let opt_last default c =
  { dec =
      (fun n -> function
        | [] -> Ok default
        | [ x ] -> c.dec n x
        | _ -> error "too many arguments");
    enc = (fun n v -> [ c.enc n v ]) }

let list_of args =
  { dec =
      (fun n -> function
        | Sexp.List items -> args.dec n items
        | s -> error "expected a list, got %s" (Sexp.to_string s));
    enc = (fun n v -> Sexp.List (args.enc n v)) }

(* --- Sums ---------------------------------------------------------------- *)

type 'a case =
  | Case : {
      tag : string;
      bare : bool; (* written as the atom [tag] rather than [(tag args…)] *)
      named : bool; (* diagnostics of [args] already carry the tag *)
      args : 'b args;
      inj : 'b -> 'a;
      proj : 'a -> 'b option;
    }
      -> 'a case

let case tag args inj proj =
  Case { tag; bare = false; named = false; args; inj; proj }

let decode_case tag args inj = case tag args inj (fun _ -> None)

let constant ~bare tag v =
  Case
    { tag; bare; named = false; args = nil; inj = (fun () -> v);
      proj = (fun x -> if x = v then Some () else None) }

let word tag v = constant ~bare:true tag v
let form0 tag v = constant ~bare:false tag v

let rec find_case what n s bare tag args = function
  | [] -> error "unknown %s %s" what (Sexp.to_string s)
  | Case c :: rest ->
    if c.bare = bare && String.equal c.tag tag then
      match c.args.dec n args with
      | Ok v -> Ok (c.inj v)
      | Error e when c.named -> Error e
      | Error e -> error "(%s …): %s" tag e
    else find_case what n s bare tag args rest

let cases what cs =
  { dec =
      (fun n s ->
        match s with
        | Sexp.Atom a -> find_case what n s true a [] cs
        | Sexp.List (Sexp.Atom a :: args) -> find_case what n s false a args cs
        | Sexp.List _ -> error "unknown %s %s" what (Sexp.to_string s));
    enc =
      (fun n v ->
        let rec go = function
          | [] -> invalid_arg ("Encode: inexpressible " ^ what)
          | Case c :: rest -> (
            match c.proj v with
            | None -> go rest
            | Some _ when c.bare -> Sexp.Atom c.tag
            | Some b -> Sexp.List (Sexp.Atom c.tag :: c.args.enc n b))
        in
        go cs) }

let enum what words = cases what (List.map (fun (w, v) -> word w v) words)

(* --- Records ------------------------------------------------------------- *)

type ('r, 'a) field = {
  tag : string;
  take : names -> fields -> 'a Decode.t;
  put : names -> 'r -> Sexp.t option;
}

let form tag args = Sexp.List (Sexp.Atom tag :: args)

let always tag c get n r = Some (form tag (c.enc n (get r)))
let when_some tag c get n r = Option.map (fun v -> form tag (c.enc n v)) (get r)

let req tag c get =
  { tag; take = (fun n f -> required f tag (c.dec n)); put = always tag c get }

let dft tag c default get =
  { tag;
    take = (fun n f -> with_default f tag (c.dec n) default);
    put = always tag c get }

let lst tag c get = dft tag (many c) [] get

let opt tag c get =
  { tag;
    take = (fun n f -> optional f tag (c.dec n));
    put = when_some tag c get }

let section tag c get =
  let nonempty n = function
    | [] -> Ok None
    | args ->
      let* v = c.dec n args in
      Ok (Some v)
  in
  { tag;
    take = (fun n f -> Result.map Option.join (optional f tag (nonempty n)));
    put = when_some tag c get }

let decode_only tag dec =
  { tag;
    take = (fun n f -> Result.map ignore (optional f tag (dec n)));
    put = (fun _ _ -> None) }

type ('r, 'k) record = {
  tags : string list; (* newest first, like [puts] *)
  decode : names -> fields -> 'k Decode.t;
  puts : (names -> 'r -> Sexp.t option) list;
}

let record make = { tags = []; decode = (fun _ _ -> Ok make); puts = [] }

let ( |+ ) r fld =
  { tags = fld.tag :: r.tags;
    decode =
      (fun n f ->
        let* k = r.decode n f in
        let* a = fld.take n f in
        Ok (k a));
    puts = fld.put :: r.puts }

let body context r =
  let known = List.rev r.tags and puts = List.rev r.puts in
  { dec =
      (fun n args ->
        let* f = fields_of ~context args in
        let* v =
          (* A constructor's own range check, should the table have let a
             value through that it refuses, still ends as a diagnostic. *)
          try r.decode n f
          with Invalid_argument m -> error "%s: %s" context m
        in
        let* () = assert_no_extra f ~known in
        Ok v);
    enc = (fun n v -> List.filter_map (fun put -> put n v) puts) }

let record_case tag r proj =
  Case
    { tag; bare = false; named = true; args = body tag r; inj = Fun.id; proj }

let tagged tag r = cases tag [ record_case tag r Option.some ]

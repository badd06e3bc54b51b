open Air_sim

(* Exclusive upper bound on the span a caller with [remaining] budget may
   skip: one past the last budgeted tick. Saturates at {!Time.infinity}
   instead of wrapping when [now + remaining] approaches [max_int] — with
   [Time.infinity = max_int], the naive [now + remaining + 1] overflows to
   a negative bound and would stall (or corrupt) the skip computation. *)
let horizon ~now ~remaining =
  if remaining >= Time.infinity - now then Time.infinity
  else now + remaining + 1

(* a binary min-heap kept as four parallel arrays, so a push or a pop
   moves ints and allocates nothing *)
type t = {
  mutable cycles : int array;
  mutable seqs : int array;
  mutable handlers : int array;
  mutable args : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create () =
  let a () = Array.make 64 0 in
  { cycles = a (); seqs = a (); handlers = a (); args = a (); len = 0;
    next_seq = 0 }

let is_empty t = t.len = 0

(* whether event [i] fires before the event keyed [c], [q] *)
let before t i c q =
  let ci = Array.unsafe_get t.cycles i in
  ci < c || (ci = c && Array.unsafe_get t.seqs i < q)

(* move event [j] to slot [i] *)
let move t ~src:j ~dst:i =
  Array.unsafe_set t.cycles i (Array.unsafe_get t.cycles j);
  Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs j);
  Array.unsafe_set t.handlers i (Array.unsafe_get t.handlers j);
  Array.unsafe_set t.args i (Array.unsafe_get t.args j)

let set t i ~cycle ~seq ~handler arg =
  Array.unsafe_set t.cycles i cycle;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.handlers i handler;
  Array.unsafe_set t.args i arg

(* room for [n] events, keeping the first [t.len] *)
let reserve t n =
  let cap = Array.length t.cycles in
  if n > cap then begin
    let cap = Stdlib.max n (2 * cap) in
    let g a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.cycles <- g t.cycles;
    t.seqs <- g t.seqs;
    t.handlers <- g t.handlers;
    t.args <- g t.args
  end

(* both sifts move a hole and write the sifted event once, at its place *)
let push t ~cycle ~handler arg =
  reserve t (t.len + 1);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && not (before t ((!i - 1) / 2) cycle seq) do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  set t !i ~cycle ~seq ~handler arg

let peek_cycle t = if t.len = 0 then max_int else t.cycles.(0)

let top_handler t =
  if t.len = 0 then invalid_arg "Evq.top_handler: empty queue";
  t.handlers.(0)

let top_arg t =
  if t.len = 0 then invalid_arg "Evq.top_arg: empty queue";
  t.args.(0)

let pop t =
  if t.len = 0 then invalid_arg "Evq.pop: empty queue";
  let last = t.len - 1 in
  t.len <- last;
  (* the last event refills the hole the earliest one leaves at the root *)
  let cycle = t.cycles.(last) and seq = t.seqs.(last) in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= last then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < last && before t r t.cycles.(l) t.seqs.(l) then r else l
      in
      if before t c cycle seq then begin
        move t ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    end
  done;
  if !i <> last then move t ~src:last ~dst:!i

let save t =
  let len = t.len and next_seq = t.next_seq in
  let cycles = Array.sub t.cycles 0 len
  and seqs = Array.sub t.seqs 0 len
  and handlers = Array.sub t.handlers 0 len
  and args = Array.sub t.args 0 len in
  fun () ->
    t.len <- 0;
    reserve t len;
    Array.blit cycles 0 t.cycles 0 len;
    Array.blit seqs 0 t.seqs 0 len;
    Array.blit handlers 0 t.handlers 0 len;
    Array.blit args 0 t.args 0 len;
    t.len <- len;
    t.next_seq <- next_seq

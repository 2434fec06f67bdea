type entry = { cycle : int; seq : int; action : unit -> unit }

type t = {
  mutable heap : entry array;
  mutable len : int;
  mutable next_seq : int;
}

let dummy = { cycle = 0; seq = 0; action = (fun () -> ()) }
let create () = { heap = Array.make 64 dummy; len = 0; next_seq = 0 }
let is_empty t = t.len = 0
let size t = t.len

let less a b = a.cycle < b.cycle || (a.cycle = b.cycle && a.seq < b.seq)

let grow t =
  if t.len = Array.length t.heap then begin
    let bigger = Array.make (2 * Array.length t.heap) dummy in
    Array.blit t.heap 0 bigger 0 t.len;
    t.heap <- bigger
  end

let push t ~cycle action =
  grow t;
  let e = { cycle; seq = t.next_seq; action } in
  t.next_seq <- t.next_seq + 1;
  (* sift up *)
  let i = ref t.len in
  t.len <- t.len + 1;
  t.heap.(!i) <- e;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let peek_cycle t = if t.len = 0 then None else Some t.heap.(0).cycle

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.heap.(0) in
    t.len <- t.len - 1;
    t.heap.(0) <- t.heap.(t.len);
    t.heap.(t.len) <- dummy;
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.len && less t.heap.(l) t.heap.(!smallest) then smallest := l;
      if r < t.len && less t.heap.(r) t.heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.heap.(!smallest) in
        t.heap.(!smallest) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    Some (top.cycle, top.action)
  end

let clear t =
  Array.fill t.heap 0 t.len dummy;
  t.len <- 0

(* entries are immutable: the restorer shares them *)
let save t =
  let heap = Array.sub t.heap 0 t.len and next_seq = t.next_seq in
  let len = Array.length heap in
  fun () ->
    clear t;
    if Array.length t.heap < len then t.heap <- Array.make (max 64 len) dummy;
    Array.blit heap 0 t.heap 0 len;
    t.len <- len;
    t.next_seq <- next_seq

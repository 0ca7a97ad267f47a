(* Structure of arrays: slot [i] holds (keys.(i), seqs.(i), vals.(i)).
   [int] keys and sequence numbers live unboxed, so a push or pop
   allocates nothing beyond the occasional geometric growth (and, with
   immediate values, nothing at all). *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }
let length t = t.len
let is_empty t = t.len = 0

(* Slot [i] orders strictly before (key, seq). *)
let before t i key seq =
  let k = t.keys.(i) in
  k < key || (k = key && t.seqs.(i) < seq)

(* [v] fills the fresh slots; it is overwritten before being read. *)
let grow t v =
  let cap = Array.length t.keys in
  if t.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let keys = Array.make ncap 0 and seqs = Array.make ncap 0 in
    let vals = Array.make ncap v in
    Array.blit t.keys 0 keys 0 t.len;
    Array.blit t.seqs 0 seqs 0 t.len;
    Array.blit t.vals 0 vals 0 t.len;
    t.keys <- keys;
    t.seqs <- seqs;
    t.vals <- vals
  end

let set t i key seq v =
  t.keys.(i) <- key;
  t.seqs.(i) <- seq;
  t.vals.(i) <- v

let move t ~src ~dst = set t dst t.keys.(src) t.seqs.(src) t.vals.(src)

let push t key v =
  grow t v;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* sift up: move parents down into the hole until (key, seq) fits *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t parent key seq then continue := false
    else begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
  done;
  set t !i key seq v

let top_key t =
  if t.len = 0 then raise Not_found;
  t.keys.(0)

let pop_value t =
  if t.len = 0 then raise Not_found;
  let top = t.vals.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* sift the last entry down from the root: move the smaller child up
       into the hole until the entry fits *)
    let key = t.keys.(n) and seq = t.seqs.(n) and v = t.vals.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && before t r t.keys.(l) t.seqs.(l) then r else l
        in
        if before t c key seq then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    set t !i key seq v
  end;
  top

let peek t =
  if t.len = 0 then raise Not_found;
  (t.keys.(0), t.vals.(0))

let pop t =
  let key = top_key t in
  (key, pop_value t)

let clear t =
  t.len <- 0;
  t.next_seq <- 0

(* Struct-of-arrays heap: slot [i] is the event at [times.(i)], pushed
   as number [seqs.(i)], carrying [payloads.(i)]. Times sit unboxed in a
   [Float.Array] and payloads are ints, so neither a push nor a pop
   allocates or goes through the write barrier. *)
type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;
  mutable next_seq : int;  (* pushes since creation *)
}

let create () =
  {
    times = Float.Array.create 0;
    seqs = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
  }

let is_empty t = t.size = 0
let length t = t.size

(* Whether the event at (time, seq) comes before the one in slot [j]. *)
let[@inline] before t time seq j =
  let tj = Float.Array.unsafe_get t.times j in
  time < tj || (time = tj && seq < Array.unsafe_get t.seqs j)

let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.payloads dst (Array.unsafe_get t.payloads src)

let[@inline] place t i time seq payload =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.payloads i payload

let grow t =
  let capacity = Array.length t.seqs in
  if t.size = capacity then begin
    let new_capacity = Stdlib.max 16 (2 * capacity) in
    let times = Float.Array.create new_capacity in
    Float.Array.blit t.times 0 times 0 t.size;
    let seqs = Array.make new_capacity 0 in
    Array.blit t.seqs 0 seqs 0 t.size;
    let payloads = Array.make new_capacity 0 in
    Array.blit t.payloads 0 payloads 0 t.size;
    t.times <- times;
    t.seqs <- seqs;
    t.payloads <- payloads
  end

let push t ~time payload =
  if not (Float.is_finite time) then
    invalid_arg (Printf.sprintf "Event_queue.push: time %g" time);
  grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift the hole up from the new last slot. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t time seq parent then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  place t !i time seq payload

let min_time t =
  if t.size = 0 then Float.infinity else Float.Array.unsafe_get t.times 0

let pop_min t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let top = Array.unsafe_get t.payloads 0 in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let time = Float.Array.unsafe_get t.times last
    and seq = Array.unsafe_get t.seqs last
    and payload = Array.unsafe_get t.payloads last in
    (* Sift the hole down from the root, then drop the old last event
       into it. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let left = (2 * !i) + 1 in
      if left >= last then continue := false
      else begin
        let right = left + 1 in
        let child =
          if
            right < last
            && before t
                 (Float.Array.unsafe_get t.times right)
                 (Array.unsafe_get t.seqs right)
                 left
          then right
          else left
        in
        (* Sequence numbers are unique, so the order is total: the
           child comes first exactly when the moving event does not. *)
        if not (before t time seq child) then begin
          move t ~src:child ~dst:!i;
          i := child
        end
        else continue := false
      end
    done;
    place t !i time seq payload
  end;
  top

let pushes t = t.next_seq

let clear t =
  t.size <- 0;
  t.times <- Float.Array.create 0;
  t.seqs <- [||];
  t.payloads <- [||]

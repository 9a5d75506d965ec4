(* Points [0, len) sorted by strictly rising cost and strictly falling
   measure. Parallel unboxed arrays, grown by doubling. *)
type t = {
  mutable len : int;
  mutable costs : Float.Array.t;
  mutable measures : Float.Array.t;
  mutable tasks : int array;
  mutable designs : int array;
  mutable inserted : int;
}

(* Empty until the first insertion: many task skylines stay small. *)
let create () =
  {
    len = 0;
    costs = Float.Array.create 0;
    measures = Float.Array.create 0;
    tasks = [||];
    designs = [||];
    inserted = 0;
  }

let length t = t.len
let cost t i = Float.Array.get t.costs i
let measure t i = Float.Array.get t.measures i
let task t i = t.tasks.(i)
let design t i = t.designs.(i)
let inserted t = t.inserted

let grow t =
  let capacity = Stdlib.max 8 (2 * Float.Array.length t.costs) in
  let floats a =
    let b = Float.Array.create capacity in
    Float.Array.blit a 0 b 0 t.len;
    b
  in
  let ints a =
    let b = Array.make capacity 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.costs <- floats t.costs;
  t.measures <- floats t.measures;
  t.tasks <- ints t.tasks;
  t.designs <- ints t.designs

(* Points [hi, len) move to start at [dst]. *)
let shift t ~hi ~dst =
  let n = t.len - hi in
  Float.Array.blit t.costs hi t.costs dst n;
  Float.Array.blit t.measures hi t.measures dst n;
  Array.blit t.tasks hi t.tasks dst n;
  Array.blit t.designs hi t.designs dst n

let insert t ~cost ~measure ~task ~design =
  if measure < Float.infinity then begin
    (* [i]: how many points cost at most [cost]. The last of them has
       the least measure among them, so it alone decides whether the
       new point is beaten; on an exact tie the earlier point wins. *)
    let lo = ref 0 and hi = ref t.len in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Float.Array.get t.costs mid <= cost then lo := mid + 1 else hi := mid
    done;
    let i = !lo in
    if i = 0 || measure < Float.Array.get t.measures (i - 1) then begin
      (* The new point beats the points from the first one costing at
         least [cost] up to the last one measuring at least [measure]:
         measures fall, so they are contiguous. *)
      let first =
        if i > 0 && Float.Array.get t.costs (i - 1) = cost then i - 1 else i
      in
      let lo = ref first and hi = ref t.len in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if Float.Array.get t.measures mid >= measure then lo := mid + 1
        else hi := mid
      done;
      let beaten = !lo - first in
      if beaten = 0 && t.len = Float.Array.length t.costs then grow t;
      if beaten <> 1 then shift t ~hi:!lo ~dst:(first + 1);
      Float.Array.set t.costs first cost;
      Float.Array.set t.measures first measure;
      t.tasks.(first) <- task;
      t.designs.(first) <- design;
      t.len <- t.len - beaten + 1;
      t.inserted <- t.inserted + 1
    end
  end

let merge skylines =
  let merged = create () in
  List.iter
    (fun s ->
      for i = 0 to s.len - 1 do
        insert merged ~cost:(cost s i) ~measure:(measure s i) ~task:s.tasks.(i)
          ~design:s.designs.(i)
      done;
      merged.inserted <- merged.inserted + s.inserted)
    skylines;
  merged

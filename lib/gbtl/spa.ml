type 'a t = {
  vals : 'a array;
  occ : bool array;
  mutable touched : int array;
  mutable ntouched : int;
}

let create n ~dummy =
  { vals = Array.make (max n 1) dummy; occ = Array.make (max n 1) false;
    touched = Array.make 16 0; ntouched = 0 }

let size s = Array.length s.occ

let occupied s i = s.occ.(i)

let get s i = s.vals.(i)

let touch s i =
  if s.ntouched = Array.length s.touched then begin
    let t = Array.make (2 * s.ntouched) 0 in
    Array.blit s.touched 0 t 0 s.ntouched;
    s.touched <- t
  end;
  s.touched.(s.ntouched) <- i;
  s.ntouched <- s.ntouched + 1

let set s i v =
  if not s.occ.(i) then begin
    s.occ.(i) <- true;
    touch s i
  end;
  s.vals.(i) <- v

let accumulate s i v ~add =
  if s.occ.(i) then s.vals.(i) <- add s.vals.(i) v
  else begin
    s.occ.(i) <- true;
    s.vals.(i) <- v;
    touch s i
  end

let count s =
  let c = ref 0 in
  for k = 0 to s.ntouched - 1 do
    if s.occ.(s.touched.(k)) then incr c
  done;
  !c

(* Sorts t.(0 .. n-1) ascending in place: insertion-sorted runs of 16,
   merged through t.(n .. 2n-1), so [t] must hold 2n cells.  The native
   Gustavson body (lib/jit/bodies/mxm.ml) carries the same sort. *)
let sort_prefix (t : int array) n =
  let run = 16 in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + run) in
    for i = !lo + 1 to hi - 1 do
      let x = t.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && t.(!j) > x do
        t.(!j + 1) <- t.(!j);
        decr j
      done;
      t.(!j + 1) <- x
    done;
    lo := hi
  done;
  let src = ref 0 and dst = ref n and w = ref run in
  while !w < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !w) and hi = min n (!lo + (2 * !w)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !j >= hi || (!i < mid && t.(s + !i) < t.(s + !j)) then begin
          t.(d + k) <- t.(s + !i);
          incr i
        end
        else begin
          t.(d + k) <- t.(s + !j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    w := 2 * !w
  done;
  if !src <> 0 then Array.blit t !src t 0 n

(* A row that touched at least an eighth of the slots is emitted by a
   scan of [occ]; any other sorts its touched list in place. *)
let iter_sorted f s =
  let n = s.ntouched and size = Array.length s.occ in
  if 8 * n >= size then
    for i = 0 to size - 1 do
      if s.occ.(i) then f i s.vals.(i)
    done
  else begin
    if Array.length s.touched < 2 * n then begin
      let t = Array.make (2 * n) 0 in
      Array.blit s.touched 0 t 0 n;
      s.touched <- t
    end;
    sort_prefix s.touched n;
    for k = 0 to n - 1 do
      let i = s.touched.(k) in
      f i s.vals.(i)
    done
  end

let extract s =
  let e = Entries.create () in
  iter_sorted (Entries.push e) s;
  e

let clear s =
  for k = 0 to s.ntouched - 1 do
    s.occ.(s.touched.(k)) <- false
  done;
  s.ntouched <- 0

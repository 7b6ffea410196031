type t = {
  mutable keys : float array;
  mutable vals : int array;
  mutable size : int;
}

let create () = { keys = Array.make 16 0.0; vals = Array.make 16 0; size = 0 }
let is_empty q = q.size = 0
let length q = q.size
let clear q = q.size <- 0

let swap q i j =
  let tk = q.keys.(i) and tv = q.vals.(i) in
  q.keys.(i) <- q.keys.(j);
  q.vals.(i) <- q.vals.(j);
  q.keys.(j) <- tk;
  q.vals.(j) <- tv

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if q.keys.(i) < q.keys.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && q.keys.(l) < q.keys.(!smallest) then smallest := l;
  if r < q.size && q.keys.(r) < q.keys.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let push q key v =
  if q.size = Array.length q.keys then begin
    let cap = 2 * q.size in
    let keys = Array.make cap 0.0 and vals = Array.make cap 0 in
    Array.blit q.keys 0 keys 0 q.size;
    Array.blit q.vals 0 vals 0 q.size;
    q.keys <- keys;
    q.vals <- vals
  end;
  q.keys.(q.size) <- key;
  q.vals.(q.size) <- v;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let min_key q =
  if q.size = 0 then raise Not_found;
  q.keys.(0)

let pop q =
  if q.size = 0 then raise Not_found;
  let v = q.vals.(0) in
  q.size <- q.size - 1;
  q.keys.(0) <- q.keys.(q.size);
  q.vals.(0) <- q.vals.(q.size);
  if q.size > 0 then sift_down q 0;
  v

type t = { mutable state : int }

(* lrand48 parameters: x' = (a * x + c) mod 2^48, output = bits 47..17. *)
let a = 0x5DEECE66D
let c = 0xB
let mask48 = (1 lsl 48) - 1

let create seed = { state = ((seed lsl 16) lxor 0x330E) land mask48 }

let step t =
  t.state <- ((a * t.state) + c) land mask48;
  t.state lsr 17 (* 31 random bits *)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then step t land (bound - 1)
  else begin
    (* Rejection sampling to avoid modulo bias. *)
    let limit = 0x40000000 - (0x40000000 mod bound) in
    let rec draw () =
      let v = step t land 0x3FFFFFFF in
      if v < limit then v mod bound else draw ()
    in
    draw ()
  end

let float t bound = float_of_int (step t) /. 2147483648.0 *. bound

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  arr

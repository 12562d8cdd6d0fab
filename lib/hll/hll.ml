open Lt_util

type t = { precision : int; registers : Bytes.t }

let create ?(precision = 12) () =
  if precision < 4 || precision > 16 then
    invalid_arg "Hll.create: precision must be in [4, 16]";
  { precision; registers = Bytes.make (1 lsl precision) '\000' }

let copy t = { t with registers = Bytes.copy t.registers }

let precision t = t.precision

(* Number of leading zeros of [x] within its low [width] bits, plus one. *)
let rho x width =
  let rec go i =
    if i >= width then width + 1
    else if Int64.logand (Int64.shift_right_logical x (width - 1 - i)) 1L = 1L
    then i + 1
    else go (i + 1)
  in
  go 0

let add t s =
  let h = Fnv.hash s in
  let m = 1 lsl t.precision in
  let idx = Int64.to_int (Int64.logand h (Int64.of_int (m - 1))) in
  let rest = Int64.shift_right_logical h t.precision in
  let r = rho rest (64 - t.precision) in
  if r > Char.code (Bytes.get t.registers idx) then
    Bytes.set t.registers idx (Char.chr r)

let alpha m =
  match m with
  | 16 -> 0.673
  | 32 -> 0.697
  | 64 -> 0.709
  | _ -> 0.7213 /. (1.0 +. (1.079 /. float_of_int m))

let estimate t =
  let m = 1 lsl t.precision in
  let sum = ref 0.0 and zeros = ref 0 in
  for i = 0 to m - 1 do
    let r = Char.code (Bytes.get t.registers i) in
    if r = 0 then incr zeros;
    sum := !sum +. (1.0 /. float_of_int (1 lsl r))
  done;
  let mf = float_of_int m in
  let raw = alpha m *. mf *. mf /. !sum in
  if raw <= 2.5 *. mf && !zeros > 0 then
    (* Small-range correction: linear counting. *)
    mf *. log (mf /. float_of_int !zeros)
  else begin
    let two_64 = 1.8446744073709552e19 in
    if raw > two_64 /. 30.0 then -.two_64 *. log (1.0 -. (raw /. two_64))
    else raw
  end

let merge_into a b =
  if a.precision <> b.precision then
    invalid_arg "Hll.merge_into: precision mismatch";
  for i = 0 to Bytes.length a.registers - 1 do
    if Bytes.get b.registers i > Bytes.get a.registers i then
      Bytes.set a.registers i (Bytes.get b.registers i)
  done

let serialize t =
  let b = Buffer.create (Bytes.length t.registers + 4) in
  Binio.put_u8 b t.precision;
  Buffer.add_bytes b t.registers;
  Buffer.contents b

let deserialize s =
  let cur = Binio.cursor s in
  let precision = Binio.get_u8 cur in
  if precision < 4 || precision > 16 then
    raise (Binio.Corrupt "hll: bad precision");
  let regs = Binio.get_bytes cur (1 lsl precision) in
  Binio.expect_end cur;
  { precision; registers = Bytes.of_string regs }

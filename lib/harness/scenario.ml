module type S = sig
  type cfg
  type outcome

  val header : cfg -> string
  val run : cfg -> outcome
  val ok : outcome -> bool
  val pp : Format.formatter -> outcome -> unit
end

let fingerprint v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let replays (type c o) (module M : S with type cfg = c and type outcome = o) cfg =
  let first = M.run cfg in
  (first, fingerprint (M.run cfg) = fingerprint first)

let main (type c) ?(ppf = Format.std_formatter) (module M : S with type cfg = c) cfg =
  Format.fprintf ppf "%s@." (M.header cfg);
  let o = M.run cfg in
  Format.fprintf ppf "%a" M.pp o;
  let identical = fingerprint (M.run cfg) = fingerprint o in
  Format.fprintf ppf "replay: %s@."
    (if identical then "byte-identical" else "DIVERGED from the first run");
  if M.ok o && identical then 0 else 1

(** Static integer tables of an emitted C translation unit.

    Every C emitter bakes the symbolic phase's index arrays (patterns,
    prune-sets, schedules) into its source. Written as initializer lists
    ([{1,2,3,…}]) they dominate the C compiler's time: a multi-MB unit
    spends most of a cold compile parsing integer literals. This module
    writes each table instead as a mutable [static int NAME[max 1 n]] plus
    one base64 string literal holding the table's zigzag-delta LEB128
    varints; a small decoder and one [__attribute__((constructor))]
    function fill the arrays when the shared object is [dlopen]ed (or at
    program start for an executable). The unit stays self-contained. *)

val emit : Buffer.t -> (string * int array) list -> unit
(** [emit buf tables] appends to [buf] the declarations of [tables] (in
    order), the decoder, and the constructor that decodes every table.
    A table whose contents equal an earlier one of the list is emitted as
    [#define NAME FIRST] and shares its storage. Emits nothing for [[]].
    Raises [Invalid_argument] when a value does not fit a C [int]
    (32-bit). *)

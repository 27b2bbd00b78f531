(** The direct symbol-table backend: a stack of scopes with association
    lists, knows-list aware. This is the production path; its behaviour
    must be indistinguishable from {!Symtab_algebraic} through the
    {!Symtab_intf.SYMTAB} interface. *)

include Symtab_intf.SYMTAB

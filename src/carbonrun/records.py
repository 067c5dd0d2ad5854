"""Records that check their values whenever they are built."""


class Checked:
    """A base listed before a `typing.NamedTuple` (whose body may not define
    `__new__`), for a record whose `_check` raises on a bad value.  Every
    instance is checked when it is built, by `_make` and `_replace` too.
    Subclasses set `__slots__ = ()`, as the NamedTuple itself does."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

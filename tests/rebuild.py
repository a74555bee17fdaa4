"""Copies of value objects with some fields changed."""


def replace(value, **changes):
    """A copy of ``value`` with the given fields changed, built through its
    constructor from every field, as a value class names them in its
    ``__slots__``; an unknown field is a TypeError from the constructor."""
    fields = {name: getattr(value, name) for name in type(value).__slots__}
    fields.update(changes)
    return type(value)(**fields)

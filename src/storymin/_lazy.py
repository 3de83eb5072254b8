"""numpy, imported at the first numeric step instead of at start-up.

Modules bind ``np`` from here.  The first attribute read imports numpy
(under the import lock, so threads that race for it wait for one import)
and keeps the attribute on ``np``, where later reads find it at once.
Nothing is put in ``sys.modules`` but numpy itself, by its own import.
"""

from __future__ import annotations


class _Numpy:
    def __getattr__(self, name: str):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()

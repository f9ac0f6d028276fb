"""Suite-wide guards shared by every test module."""

import os

import pytest

#: where POSIX shared-memory segments live; Python names its ``psm_*``
SHM_DIR = "/dev/shm"


def _shm_segments() -> set[str]:
    return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}


@pytest.fixture(autouse=True, scope="module")
def no_leaked_shared_memory(request):
    """Fail a test module that leaves new ``psm_*`` segments behind.

    Backends, campaign pools and their crash paths all promise to unlink
    what they publish; a module that ends with more segments than it
    started with broke that promise somewhere. Without ``/dev/shm`` there
    is nothing to watch, and the guard stands aside.
    """
    if not os.path.isdir(SHM_DIR):
        yield
        return
    before = _shm_segments()
    yield
    leaked = sorted(_shm_segments() - before)
    if leaked:
        pytest.fail(
            f"{request.module.__name__} left {len(leaked)} shared-memory "
            f"segment(s) in {SHM_DIR}: {', '.join(leaked[:5])}"
            + (" …" if len(leaked) > 5 else ""),
            pytrace=False,
        )

import contextlib
import warnings

from hypothesis import settings

# hypothesis imports this module (and through it libcst, where installed) only
# once a test has failed, to print the falsifying example; under -W error
# libcst's DeprecationWarning would then replace the example with an
# INTERNALERROR.  Imported here, with that warning ignored, the later import
# finds it loaded.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("suite")

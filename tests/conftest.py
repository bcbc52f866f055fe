import os

# Full-depth mode runs the expensive acceptance bounds (brute lengths up to
# 12 instead of 10); enable with MESHLAB_FULL=1.
FULL_DEPTH = os.environ.get("MESHLAB_FULL") == "1"


def pytest_report_header(config):
    return f"meshlab acceptance depth: {'full (<=12)' if FULL_DEPTH else 'default (<=10), set MESHLAB_FULL=1 for full'}"

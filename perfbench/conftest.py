import sys
from pathlib import Path

# the benchmark's tests import the program from the checkout's src/, as run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import os
import sys

# the benchmark's tests import the library from the source tree, as run.py does
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
